package scenario

import (
	"encoding/hex"
	"fmt"
	"os"

	"gnnmark/internal/backend"
	"gnnmark/internal/core"
	"gnnmark/internal/gpu"
)

// Scenario is one parsed scenario file: a fleet, a workload, timed events,
// an optional serving phase, and the assertions that make the run a test.
type Scenario struct {
	// Name identifies the scenario in reports and assertion failures.
	Name string
	// Seed drives every random draw of the run (default 1). The whole
	// execution is a pure function of (file, seed).
	Seed int64
	// Fleet declares the simulated devices, node by node.
	Fleet Fleet
	// Workload declares what trains on the fleet.
	Workload WorkloadSpec
	// Events are the timed chaos events, in file order.
	Events []EventSpec
	// Serve, when non-nil, adds the inference serving phase: the trained
	// weights are frozen and driven with generated traffic.
	Serve *ServeSpec
	// Assertions are checked against the outcome, in file order.
	Assertions []Assertion
}

// Fleet is the declared device fleet. Nodes flatten to "slots" (device
// indices) in declaration order: a node with gpus: 2 contributes two
// consecutive slots, both with its device model.
type Fleet struct {
	Nodes []FleetNode
}

// FleetNode is one homogeneous node of the fleet.
type FleetNode struct {
	// Preset is the device preset name (v100, p100, a100, h100).
	Preset string
	// GPUs is the device count on this node (default 1).
	GPUs int
	// HBMGB overrides the preset's device-memory budget in GiB (0 = keep).
	HBMGB float64
	Line  int
}

// Slots flattens the fleet into one device config per slot.
func (f Fleet) Slots() ([]gpu.Config, error) {
	var out []gpu.Config
	for _, n := range f.Nodes {
		cfg, err := gpu.Preset(n.Preset)
		if err != nil {
			return nil, err
		}
		if n.HBMGB > 0 {
			cfg.HBMBytes = int64(n.HBMGB * (1 << 30))
		}
		gpus := n.GPUs
		if gpus == 0 {
			gpus = 1
		}
		for i := 0; i < gpus; i++ {
			out = append(out, cfg)
		}
	}
	return out, nil
}

// WorkloadSpec declares the training workload and its execution knobs.
type WorkloadSpec struct {
	// Key is the registry mnemonic (ARGA, PSAGE, ...); Dataset one of its
	// datasets (empty = default).
	Key     string
	Dataset string
	// Parallelism selects the multi-device plane when the fleet has more
	// than one slot: "ddp" (default; elastic when fatal events are
	// scheduled) or "partitioned". Single-slot fleets train single-device.
	Parallelism string
	// Epochs is the training epoch count (default 2).
	Epochs int
	// Backend is the CPU numerics backend (serial/parallel; default serial).
	Backend string
	// Warps overrides the cache-replay sampling budget (default 512 — the
	// fast fidelity tier; scenarios are CI artifacts).
	Warps int
	// PipelineDepth/LoaderWorkers/CompressH2D configure the asynchronous
	// input pipeline (single-device and DDP planes).
	PipelineDepth int
	LoaderWorkers int
	CompressH2D   bool
	// Overlap enables the overlapped halo exchange (partitioned plane).
	Overlap bool
	Line    int
}

// Event type mnemonics accepted in scenario files. The fault-plane types
// mirror fault.EventType; loader-kill and serve-burst are scenario-level
// events compiled onto the pipeline and serving planes.
const (
	EvXID         = "xid"
	EvECCSBE      = "ecc-sbe"
	EvECCDBE      = "ecc-dbe"
	EvThermal     = "thermal-throttle"
	EvNVLink      = "nvlink-degrade"
	EvReplicaLoss = "replica-loss"
	EvLoaderKill  = "loader-kill"
	EvServeBurst  = "serve-burst"
)

// Planes an event can target.
const (
	PlaneTrain = "train"
	PlaneServe = "serve"
)

// EventSpec is one timed chaos event.
type EventSpec struct {
	// Type is one of the Ev* mnemonics.
	Type string
	// Plane is "train" (default) or "serve". Train events fire against
	// training fleet slots at simulated training time; serve-plane events
	// act on the serving phase (serve-burst shapes the arrival trace,
	// thermal-throttle slows a serving replica's device).
	Plane string
	// Slot is the fleet slot (train plane) or replica index (serve plane)
	// the event hits.
	Slot int
	// At is the event time in simulated seconds. Train-plane events
	// compare against the slot's training-relative device clock; a serve-
	// plane thermal-throttle compares against the replica's accumulated
	// device busy time.
	At float64
	// Factor is the slowdown multiplier for thermal-throttle and
	// nvlink-degrade (0 = the fault plane's default).
	Factor float64
	// Code is the XID code (xid events; default 79).
	Code int
	// Msg is carried into error messages.
	Msg string
	// AtFrac/DurationFrac position a serve-burst window as fractions of
	// the serving horizon [0, 1).
	AtFrac       float64
	DurationFrac float64
	Line         int
}

// ServeSpec declares the inference serving phase. Rates and horizons are
// expressed relative to the measured batch-of-1 service time, so scenario
// files stay valid as the device model evolves.
type ServeSpec struct {
	// Replicas is the frozen-replica count (default 2). Replica i serves
	// on the device model of fleet slot i mod len(slots).
	Replicas int
	// MaxBatch is the micro-batching cap (default 8).
	MaxBatch int
	// MaxWaitFactor is the batching window in batch-1 service times
	// (default 1).
	MaxWaitFactor float64
	// QueueCap bounds the admission queue (default 64; -1 = unbounded).
	QueueCap int
	// CacheRows is the embedding-cache capacity (default 0: no cache).
	CacheRows int
	// LoadFactor is the offered open-loop rate relative to the pool's
	// batch-1 capacity (default 1).
	LoadFactor float64
	// DurationFactor is the arrival horizon in batch-1 service times
	// (default 200).
	DurationFactor float64
	Line           int
}

// Assertion kinds.
const (
	AssertRerunDigest     = "rerun-digest"
	AssertDigest          = "digest"
	AssertEpochSecondsMax = "epoch-seconds-max"
	AssertTotalSecondsMax = "total-seconds-max"
	AssertLossMax         = "loss-max"
	AssertCompletedMin    = "completed-epochs-min"
	AssertGoodputMin      = "goodput-min"
	AssertRecoveryDeadln  = "recovery-deadline"
	AssertRecoveriesMin   = "recoveries-min"
	AssertSurvivorsMin    = "survivors-min"
	AssertMetricMax       = "metric-max"
	AssertMetricMin       = "metric-min"
	AssertExpectOOM       = "expect-oom"
	AssertExpectAbort     = "expect-abort"
	AssertServeQPSMin     = "serve-qps-min"
	AssertServeP99MaxUS   = "serve-p99-max-us"
	AssertServeRejectMax  = "serve-rejected-max"
	AssertServeHitRateMin = "serve-hit-rate-min"
)

// Assertion is one outcome check.
type Assertion struct {
	// Kind selects the check (one of the Assert* kinds).
	Kind string
	// Value is the numeric threshold for bounded kinds.
	Value float64
	// Metric names the obs metric for metric-max/metric-min.
	Metric string
	// Text is the expected digest hex (digest) or the required error
	// substring (expect-abort).
	Text string
	Line int
}

// decodeScenario converts the parse tree into the typed Scenario,
// rejecting unknown keys and type mismatches with their line numbers.
func decodeScenario(root *node) (*Scenario, error) {
	sc := &Scenario{Seed: 1}
	d, err := newMapDecoder(root, "scenario")
	if err != nil {
		return nil, err
	}
	d.str("scenario", &sc.Name)
	if c := d.get("seed"); c != nil {
		v, err := c.asInt("seed")
		d.fail(err)
		sc.Seed = int64(v)
	}
	if c := d.get("fleet"); c != nil {
		d.fail(decodeFleet(c, &sc.Fleet))
	}
	if c := d.get("workload"); c != nil {
		d.fail(decodeWorkload(c, &sc.Workload))
	}
	if c := d.get("events"); c != nil {
		evs, err := decodeEvents(c)
		d.fail(err)
		sc.Events = evs
	}
	if c := d.get("serve"); c != nil {
		sv, err := decodeServe(c)
		d.fail(err)
		sc.Serve = sv
	}
	if c := d.get("assertions"); c != nil {
		as, err := decodeAssertions(c)
		d.fail(err)
		sc.Assertions = as
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	if sc.Name == "" {
		return nil, errf(root.line, "missing \"scenario:\" name")
	}
	return sc, nil
}

func decodeFleet(n *node, f *Fleet) *ParseError {
	d, err := newMapDecoder(n, "fleet")
	if err != nil {
		return err
	}
	nodes := d.get("nodes")
	if nodes == nil {
		return errf(n.line, "fleet needs a \"nodes:\" list")
	}
	if nodes.kind != listNode {
		return errf(nodes.line, "fleet.nodes must be a list")
	}
	for _, item := range nodes.items {
		var fn FleetNode
		fn.Line = item.line
		nd, err := newMapDecoder(item, "fleet node")
		if err != nil {
			return err
		}
		nd.str("preset", &fn.Preset)
		nd.intval("gpus", &fn.GPUs)
		nd.floatval("hbm-gb", &fn.HBMGB)
		if err := nd.finish(); err != nil {
			return err
		}
		f.Nodes = append(f.Nodes, fn)
	}
	return d.finish()
}

func decodeWorkload(n *node, w *WorkloadSpec) *ParseError {
	w.Line = n.line
	d, err := newMapDecoder(n, "workload")
	if err != nil {
		return err
	}
	d.str("key", &w.Key)
	d.str("dataset", &w.Dataset)
	d.str("parallelism", &w.Parallelism)
	d.str("backend", &w.Backend)
	d.intval("epochs", &w.Epochs)
	d.intval("warps", &w.Warps)
	d.intval("pipeline-depth", &w.PipelineDepth)
	d.intval("loader-workers", &w.LoaderWorkers)
	d.boolval("compress-h2d", &w.CompressH2D)
	d.boolval("overlap", &w.Overlap)
	return d.finish()
}

func decodeEvents(n *node) ([]EventSpec, *ParseError) {
	if n.kind != listNode {
		return nil, errf(n.line, "events must be a list")
	}
	var out []EventSpec
	for _, item := range n.items {
		var ev EventSpec
		ev.Line = item.line
		d, err := newMapDecoder(item, "event")
		if err != nil {
			return nil, err
		}
		d.str("type", &ev.Type)
		d.str("plane", &ev.Plane)
		d.intval("slot", &ev.Slot)
		d.floatval("at", &ev.At)
		d.floatval("factor", &ev.Factor)
		d.intval("code", &ev.Code)
		d.str("msg", &ev.Msg)
		d.floatval("at-frac", &ev.AtFrac)
		d.floatval("duration-frac", &ev.DurationFrac)
		if err := d.finish(); err != nil {
			return nil, err
		}
		if ev.Plane == "" {
			if ev.Type == EvServeBurst {
				ev.Plane = PlaneServe
			} else {
				ev.Plane = PlaneTrain
			}
		}
		out = append(out, ev)
	}
	return out, nil
}

func decodeServe(n *node) (*ServeSpec, *ParseError) {
	sv := &ServeSpec{Line: n.line}
	d, err := newMapDecoder(n, "serve")
	if err != nil {
		return nil, err
	}
	d.intval("replicas", &sv.Replicas)
	d.intval("max-batch", &sv.MaxBatch)
	d.floatval("max-wait-factor", &sv.MaxWaitFactor)
	d.intval("queue-cap", &sv.QueueCap)
	d.intval("cache-rows", &sv.CacheRows)
	d.floatval("load-factor", &sv.LoadFactor)
	d.floatval("duration-factor", &sv.DurationFactor)
	return sv, d.finish()
}

func decodeAssertions(n *node) ([]Assertion, *ParseError) {
	if n.kind != listNode {
		return nil, errf(n.line, "assertions must be a list")
	}
	var out []Assertion
	for _, item := range n.items {
		var a Assertion
		a.Line = item.line
		d, err := newMapDecoder(item, "assertion")
		if err != nil {
			return nil, err
		}
		d.str("kind", &a.Kind)
		d.floatval("value", &a.Value)
		d.str("metric", &a.Metric)
		d.str("text", &a.Text)
		if err := d.finish(); err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// ---- semantic validation ----

// trainEventTypes maps scenario event mnemonics onto the train plane.
var trainEventTypes = map[string]bool{
	EvXID: true, EvECCSBE: true, EvECCDBE: true, EvThermal: true,
	EvNVLink: true, EvReplicaLoss: true, EvLoaderKill: true,
}

// serveEventTypes are the event mnemonics the serving phase understands.
var serveEventTypes = map[string]bool{EvServeBurst: true, EvThermal: true}

// servableWorkloads are the registry keys implementing models.Servable
// (pinned by TestServableSet against the live registry).
var servableWorkloads = map[string]bool{"PSAGE": true, "ARGA": true}

// boundedAssertions require a positive "value:".
var boundedAssertions = map[string]bool{
	AssertEpochSecondsMax: true, AssertTotalSecondsMax: true, AssertLossMax: true,
	AssertCompletedMin: true, AssertGoodputMin: true, AssertRecoveryDeadln: true,
	AssertRecoveriesMin: true, AssertSurvivorsMin: true,
	AssertMetricMax: true, AssertMetricMin: true,
	AssertServeQPSMin: true, AssertServeP99MaxUS: true, AssertServeHitRateMin: true,
}

// allAssertionKinds is the complete kind set.
var allAssertionKinds = map[string]bool{
	AssertRerunDigest: true, AssertDigest: true, AssertExpectOOM: true,
	AssertExpectAbort: true, AssertServeRejectMax: true,
}

func init() {
	for k := range boundedAssertions {
		allAssertionKinds[k] = true
	}
}

// Validate checks the scenario against the live registries: presets
// resolve, the workload and dataset exist, events target real slots with
// types their plane understands, and every assertion is well-formed. All
// failures are *ParseError values with the declaring line.
func (sc *Scenario) Validate() error {
	if len(sc.Fleet.Nodes) == 0 {
		return errf(1, "scenario %q declares no fleet nodes", sc.Name)
	}
	for _, n := range sc.Fleet.Nodes {
		if _, err := gpu.Preset(n.Preset); err != nil {
			return errf(n.Line, "fleet node: %v (have %v)", err, gpu.PresetNames())
		}
		if n.GPUs < 0 {
			return errf(n.Line, "fleet node: negative gpus %d", n.GPUs)
		}
		if n.HBMGB < 0 {
			return errf(n.Line, "fleet node: negative hbm-gb %g", n.HBMGB)
		}
	}
	slots, err := sc.Fleet.Slots()
	if err != nil {
		return err
	}
	world := len(slots)

	w := &sc.Workload
	spec, lookErr := core.Lookup(w.Key)
	if lookErr != nil {
		return errf(w.Line, "%v", lookErr)
	}
	if w.Dataset != "" {
		ok := false
		for _, ds := range spec.Datasets {
			ok = ok || ds == w.Dataset
		}
		if !ok {
			return errf(w.Line, "workload %s has no dataset %q (have %v)", w.Key, w.Dataset, spec.Datasets)
		}
	}
	if w.Backend != "" {
		if _, err := backend.New(w.Backend); err != nil {
			return errf(w.Line, "%v", err)
		}
	}
	if w.Epochs < 0 || w.Warps < 0 || w.PipelineDepth < 0 || w.LoaderWorkers < 0 {
		return errf(w.Line, "workload: negative epoch/warp/pipeline counts")
	}
	switch w.Parallelism {
	case "", "single", "ddp":
	case "partitioned":
		ok := false
		for _, k := range core.PartitionedWorkloads() {
			ok = ok || k == w.Key
		}
		if !ok {
			return errf(w.Line, "workload %s does not support partitioned training (have %v)",
				w.Key, core.PartitionedWorkloads())
		}
	default:
		return errf(w.Line, "unknown parallelism %q (want ddp or partitioned)", w.Parallelism)
	}
	if world == 1 && w.Parallelism == "partitioned" {
		return errf(w.Line, "partitioned training needs a fleet with more than one device")
	}

	if sc.Serve != nil {
		if !servableWorkloads[w.Key] {
			return errf(sc.Serve.Line, "workload %s does not serve embeddings (servable: ARGA, PSAGE)", w.Key)
		}
		if w.Parallelism == "partitioned" {
			return errf(sc.Serve.Line, "the serving phase cannot freeze partitioned weights (use ddp or a single device)")
		}
		s := sc.Serve
		if s.Replicas < 0 || s.MaxBatch < 0 || s.CacheRows < 0 {
			return errf(s.Line, "serve: negative replica/batch/cache counts")
		}
		if s.LoadFactor < 0 || s.DurationFactor < 0 || s.MaxWaitFactor < 0 {
			return errf(s.Line, "serve: negative load/duration/wait factors")
		}
	}

	for _, ev := range sc.Events {
		if err := sc.validateEvent(ev, world); err != nil {
			return err
		}
	}

	hasServeAssert := false
	for _, a := range sc.Assertions {
		if !allAssertionKinds[a.Kind] {
			return errf(a.Line, "unknown assertion kind %q", a.Kind)
		}
		if boundedAssertions[a.Kind] && a.Value <= 0 {
			return errf(a.Line, "assertion %s needs a positive \"value:\"", a.Kind)
		}
		switch a.Kind {
		case AssertMetricMax, AssertMetricMin:
			if a.Metric == "" {
				return errf(a.Line, "assertion %s needs a \"metric:\" name", a.Kind)
			}
		case AssertDigest:
			if _, err := hex.DecodeString(a.Text); err != nil || a.Text == "" {
				return errf(a.Line, "assertion digest needs a hex \"text:\" value")
			}
		case AssertExpectAbort:
			if a.Text == "" {
				return errf(a.Line, "assertion expect-abort needs a \"text:\" substring")
			}
		case AssertGoodputMin, AssertRecoveryDeadln, AssertRecoveriesMin, AssertSurvivorsMin:
			if world == 1 || sc.Workload.Parallelism == "partitioned" {
				return errf(a.Line, "assertion %s needs elastic ddp training (fleet > 1 device)", a.Kind)
			}
		case AssertServeQPSMin, AssertServeP99MaxUS, AssertServeRejectMax, AssertServeHitRateMin:
			hasServeAssert = true
		}
	}
	if hasServeAssert && sc.Serve == nil {
		for _, a := range sc.Assertions {
			switch a.Kind {
			case AssertServeQPSMin, AssertServeP99MaxUS, AssertServeRejectMax, AssertServeHitRateMin:
				return errf(a.Line, "assertion %s needs a \"serve:\" section", a.Kind)
			}
		}
	}
	return nil
}

func (sc *Scenario) validateEvent(ev EventSpec, world int) error {
	switch ev.Plane {
	case PlaneTrain:
		if !trainEventTypes[ev.Type] {
			return errf(ev.Line, "unknown train-plane event type %q", ev.Type)
		}
		if ev.Slot < 0 || ev.Slot >= world {
			return errf(ev.Line, "event slot %d outside the %d-device fleet", ev.Slot, world)
		}
		if ev.Type == EvLoaderKill {
			if world != 1 {
				return errf(ev.Line, "loader-kill applies to single-device runs only")
			}
			if sc.Workload.PipelineDepth <= 0 {
				return errf(ev.Line, "loader-kill needs workload.pipeline-depth > 0")
			}
		}
		// A fatal event on a partitioned fleet is allowed: that plane aborts
		// cleanly, and the scenario should assert expect-abort.
	case PlaneServe:
		if sc.Serve == nil {
			return errf(ev.Line, "serve-plane event needs a \"serve:\" section")
		}
		if !serveEventTypes[ev.Type] {
			return errf(ev.Line, "unknown serve-plane event type %q (want serve-burst or thermal-throttle)", ev.Type)
		}
		replicas := sc.Serve.Replicas
		if replicas == 0 {
			replicas = defaultServeReplicas
		}
		if ev.Slot < 0 || ev.Slot >= replicas {
			return errf(ev.Line, "event slot %d outside the %d serving replicas", ev.Slot, replicas)
		}
		if ev.Type == EvServeBurst {
			if ev.AtFrac < 0 || ev.AtFrac >= 1 {
				return errf(ev.Line, "serve-burst at-frac %g outside [0, 1)", ev.AtFrac)
			}
			if ev.DurationFrac <= 0 || ev.AtFrac+ev.DurationFrac > 1 {
				return errf(ev.Line, "serve-burst window [%g, %g] outside (0, 1]", ev.AtFrac, ev.AtFrac+ev.DurationFrac)
			}
			if ev.Factor < 1 {
				return errf(ev.Line, "serve-burst needs factor >= 1")
			}
		}
	default:
		return errf(ev.Line, "unknown event plane %q (want train or serve)", ev.Plane)
	}
	if ev.At < 0 {
		return errf(ev.Line, "negative event time %g", ev.At)
	}
	if ev.Factor < 0 {
		return errf(ev.Line, "negative event factor %g", ev.Factor)
	}
	return nil
}

// ParseFile reads and parses path, stamping the file name onto errors.
func ParseFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return ParseNamed(path, string(data))
}
