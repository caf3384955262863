package scenario

import (
	"cmp"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"strings"

	"gnnmark/internal/backend"
	"gnnmark/internal/core"
	"gnnmark/internal/gpu"
	"gnnmark/internal/loader"
)

// Scenario is one scenario: a fleet, a workload, timed events, an optional
// serving phase, and the assertions that make the run a test. It is a plain
// value: a zero field is an unset one (vocab.go lists the defaults), so a
// Scenario built in Go with only its required fields validates and runs
// exactly as its parsed text does.
type Scenario struct {
	// Name identifies the scenario in reports and assertion failures.
	Name string
	// Seed drives every random draw of the run. The whole execution is a
	// pure function of (file, seed).
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
	// GPUs is the device count on this node.
	GPUs int
	// HBMGB overrides the preset's device-memory budget in GiB (0 = keep).
	HBMGB float64
	Line  int
}

// Slots flattens the fleet into one device config per slot; a node the
// device registry or arithmetic cannot place is a *ParseError at its line.
func (f Fleet) Slots() ([]gpu.Config, error) {
	var out []gpu.Config
	for _, n := range f.Nodes {
		cfg, err := gpu.Preset(n.Preset)
		switch {
		case err != nil:
			return nil, errf(n.Line, "fleet node: %v (have %v)", err, gpu.PresetNames())
		case n.GPUs < 0:
			return nil, errf(n.Line, "fleet node: negative gpus %d", n.GPUs)
		case n.HBMGB < 0:
			return nil, errf(n.Line, "fleet node: negative hbm-gb %g", n.HBMGB)
		case n.HBMGB > 0:
			cfg.HBMBytes = int64(n.HBMGB * (1 << 30))
		}
		for i := 0; i < cmp.Or(n.GPUs, defaultGPUs); i++ {
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
	// than one slot: one of core.Parallelisms (the first is the default).
	// Single-slot fleets train single-device.
	Parallelism string
	// Epochs is the training epoch count.
	Epochs int
	// Backend is the CPU numerics backend (serial/parallel; default serial).
	Backend string
	// Warps overrides the cache-replay sampling budget.
	Warps int
	// PipelineDepth/LoaderWorkers/CompressH2D configure the asynchronous
	// input pipeline (single-device and DDP planes; the last two only with
	// a depth). Overlap enables the overlapped halo exchange (partitioned
	// plane). Set where the run would not read them, they are errors.
	PipelineDepth int
	LoaderWorkers int
	CompressH2D   bool
	Overlap       bool
	Line          int
}

// Planes an event can target.
const (
	PlaneTrain = "train"
	PlaneServe = "serve"
)

// EventSpec is one timed chaos event. Type names an eventTypes row, and the
// row says which of the operand fields the type reads; any other one set is
// a validation error.
type EventSpec struct {
	Type string
	// Plane is PlaneTrain or PlaneServe (default: the first the type targets).
	Plane string
	// Slot is the fleet slot (train plane) or serving replica (serve plane)
	// the event hits.
	Slot int
	// At is the event time in simulated seconds, against the slot's
	// training-relative device clock on the train plane and the replica's
	// accumulated device busy time on the serve plane.
	At float64
	// Factor is the slowdown or burst multiplier (unset = the fault plane's
	// default for the type).
	Factor float64
	// Code is the XID code; Msg is carried into error messages.
	Code int
	Msg  string
	// AtFrac/DurationFrac position a window as fractions of the serving
	// horizon [0, 1).
	AtFrac       float64
	DurationFrac float64
	Line         int
}

// ServeSpec declares the inference serving phase. Rates and horizons are
// expressed relative to the measured batch-of-1 service time, so scenario
// files stay valid as the device model evolves.
type ServeSpec struct {
	// Replicas is the frozen-replica count. Replica i serves on the device
	// model of fleet slot i mod len(slots).
	Replicas int
	// MaxBatch is the micro-batching cap.
	MaxBatch int
	// MaxWaitFactor is the batching window in batch-1 service times.
	MaxWaitFactor float64
	// QueueCap bounds the admission queue (negative = unbounded).
	QueueCap int
	// CacheRows is the embedding-cache capacity (0: no cache).
	CacheRows int
	// LoadFactor is the offered open-loop rate relative to the pool's
	// batch-1 capacity.
	LoadFactor float64
	// DurationFactor is the arrival horizon in batch-1 service times.
	DurationFactor float64
	Line           int
}

// Assertion is one outcome check. Kind names an assertionKinds row, and the
// row says which of Value (a threshold), Metric (an obs metric name) and
// Text (a digest, or a substring of the failure message) the kind reads.
type Assertion struct {
	Kind   string
	Value  float64
	Metric string
	Text   string
	Line   int
}

// decodeScenario converts the parse tree into the typed Scenario,
// rejecting unknown keys and type mismatches with their line numbers.
func decodeScenario(root *node) (*Scenario, error) {
	sc := &Scenario{}
	d, err := newMapDecoder(root, "scenario")
	if err != nil {
		return nil, err
	}
	d.field("scenario", &sc.Name)
	d.field("seed", &sc.Seed)
	d.section("fleet", func(fd *mapDecoder, _ int) {
		fd.list("nodes", "fleet node", func(nd *mapDecoder, line int) {
			fn := FleetNode{Line: line}
			nd.field("preset", &fn.Preset)
			nd.field("gpus", &fn.GPUs)
			nd.field("hbm-gb", &fn.HBMGB)
			sc.Fleet.Nodes = append(sc.Fleet.Nodes, fn)
		})
	})
	d.section("workload", func(wd *mapDecoder, line int) {
		w := &sc.Workload
		w.Line = line
		wd.field("key", &w.Key)
		wd.field("dataset", &w.Dataset)
		wd.field("parallelism", &w.Parallelism)
		wd.field("backend", &w.Backend)
		wd.field("epochs", &w.Epochs)
		wd.field("warps", &w.Warps)
		wd.field("pipeline-depth", &w.PipelineDepth)
		wd.field("loader-workers", &w.LoaderWorkers)
		wd.field("compress-h2d", &w.CompressH2D)
		wd.field("overlap", &w.Overlap)
	})
	d.list("events", "event", func(ed *mapDecoder, line int) {
		ev := EventSpec{Line: line}
		ed.field("type", &ev.Type)
		ed.field("plane", &ev.Plane)
		ed.field("slot", &ev.Slot)
		ed.field("at", &ev.At)
		ed.field("factor", &ev.Factor)
		ed.field("code", &ev.Code)
		ed.field("msg", &ev.Msg)
		ed.field("at-frac", &ev.AtFrac)
		ed.field("duration-frac", &ev.DurationFrac)
		sc.Events = append(sc.Events, ev)
	})
	d.section("serve", func(sd *mapDecoder, line int) {
		sv := &ServeSpec{Line: line}
		sd.field("replicas", &sv.Replicas)
		sd.field("max-batch", &sv.MaxBatch)
		sd.field("max-wait-factor", &sv.MaxWaitFactor)
		sd.field("queue-cap", &sv.QueueCap)
		sd.field("cache-rows", &sv.CacheRows)
		sd.field("load-factor", &sv.LoadFactor)
		sd.field("duration-factor", &sv.DurationFactor)
		sc.Serve = sv
	})
	d.list("assertions", "assertion", func(ad *mapDecoder, line int) {
		a := Assertion{Line: line}
		ad.field("kind", &a.Kind)
		ad.field("value", &a.Value)
		ad.field("metric", &a.Metric)
		ad.field("text", &a.Text)
		sc.Assertions = append(sc.Assertions, a)
	})
	if err := d.finish(); err != nil {
		return nil, err
	}
	if sc.Name == "" {
		return nil, errf(root.line, "missing \"scenario:\" name")
	}
	return sc, nil
}

// ---- resolution and semantic validation ----

// Validate checks the scenario against the vocabulary rows and the live
// registries: presets resolve, the workload lowers to a core.RunConfig that
// core accepts, every event and assertion sets the operands its row needs
// and none its row does not read, on a plane and a run its row applies to.
// It is the complete gate — Execute runs nothing Validate has not passed —
// and all failures are *ParseError values with the declaring line.
func (sc *Scenario) Validate() error {
	_, _, _, err := sc.resolve()
	return err
}

// resolve is the one step Validate and Execute share: it returns a copy of
// the scenario with every default filled in (sc itself is left as written),
// the train plane it runs on and the core run configuration it lowers to
// (Devices are the fleet's slots), or the first validation error.
func (sc *Scenario) resolve() (*Scenario, *trainPlane, core.RunConfig, error) {
	r := *sc
	r.Seed = cmp.Or(r.Seed, defaultSeed)
	w := &r.Workload
	w.Epochs = cmp.Or(w.Epochs, defaultEpochs)
	w.Warps = cmp.Or(w.Warps, defaultWarps)
	w.Parallelism = cmp.Or(w.Parallelism, core.Parallelisms()[0])
	if w.PipelineDepth > 0 {
		// Resolved here, not left to the loader: a kill lowers the live count.
		w.LoaderWorkers = cmp.Or(w.LoaderWorkers, loader.DefaultWorkers(w.PipelineDepth))
	}
	if sc.Serve != nil {
		s := *sc.Serve
		s.Replicas = cmp.Or(s.Replicas, defaultServeReplicas)
		s.MaxBatch = cmp.Or(s.MaxBatch, defaultServeMaxBatch)
		s.QueueCap = max(cmp.Or(s.QueueCap, defaultServeQueueCap), 0) // negative = unbounded = serve's 0
		s.LoadFactor = cmp.Or(s.LoadFactor, defaultLoadFactor)
		s.DurationFactor = cmp.Or(s.DurationFactor, defaultDurationFactor)
		s.MaxWaitFactor = cmp.Or(s.MaxWaitFactor, defaultMaxWaitFactor)
		r.Serve = &s
	}
	r.Events = slices.Clone(sc.Events)
	for i := range r.Events {
		ev := &r.Events[i]
		if t := eventTypeOf(ev.Type); t != nil {
			ev.Plane = cmp.Or(ev.Plane, t.planes[0])
			if t.takes&opCode != 0 { // the XID row: the one code there is to default
				ev.Code = cmp.Or(ev.Code, defaultXIDCode)
			}
		}
	}
	slots, err := r.Fleet.Slots()
	if err != nil {
		return nil, nil, core.RunConfig{}, err
	}
	cfg := r.runConfig(slots)
	plane, err := r.validate(cfg)
	return &r, plane, cfg, err
}

// validate checks a resolved scenario, lowered to cfg, and picks its train
// plane.
func (sc *Scenario) validate(cfg core.RunConfig) (*trainPlane, error) {
	world := cfg.GPUs
	if world == 0 {
		return nil, errf(1, "scenario %q declares no fleet nodes", sc.Name)
	}
	// The workload is whatever core says it is: the lowered config must
	// resolve there (key, dataset, parallelism, no negative count).
	w := &sc.Workload
	spec, _, err := cfg.Resolve()
	if err != nil {
		return nil, errf(w.Line, "workload: %s", strings.TrimPrefix(err.Error(), "core: "))
	}
	if w.Backend != "" {
		if _, err := backend.New(w.Backend, nil); err != nil {
			return nil, errf(w.Line, "%v", err)
		}
	}
	plane := &trainPlanes[0]
	if world > 1 {
		if plane = planeNamed(w.Parallelism); plane == nil || plane == &trainPlanes[0] {
			return nil, errf(w.Line, "workload: no train plane runs parallelism %q", w.Parallelism)
		}
	} else if w.Parallelism != core.Parallelisms()[0] {
		return nil, errf(w.Line, "%s training needs a fleet with more than one device", w.Parallelism)
	}
	// The plane that exchanges halos is the one that trains partitions.
	if plane.offers&overlaps != 0 && !spec.Partitioned {
		return nil, errf(w.Line, "workload %s does not support partitioned training (have %v)",
			w.Key, core.PartitionedWorkloads())
	}

	// What this run has: the plane's features plus the file's.
	have := plane.offers
	if sc.Serve != nil {
		have |= hasServe
	}
	if w.PipelineDepth > 0 {
		have |= hasPipeline
	}
	for _, k := range [...]struct {
		key   string
		set   bool
		needs feature
	}{
		{"pipeline-depth", w.PipelineDepth != 0, pipelines},
		{"loader-workers", w.LoaderWorkers != 0, hasPipeline},
		{"compress-h2d", w.CompressH2D, hasPipeline},
		{"overlap", w.Overlap, overlaps},
	} {
		if lack := k.needs &^ have; k.set && lack != 0 {
			return nil, errf(w.Line, "workload.%s is not read without %s", k.key, lack)
		}
	}

	if s := sc.Serve; s != nil {
		if !spec.Servable {
			return nil, errf(s.Line, "workload %s does not serve embeddings (servable: %v)", w.Key, core.ServableWorkloads())
		}
		if lack := freezable &^ have; lack != 0 {
			return nil, errf(s.Line, "serve: needs %s", lack)
		}
		if s.Replicas < 0 || s.MaxBatch < 0 || s.CacheRows < 0 {
			return nil, errf(s.Line, "serve: negative replica/batch/cache counts")
		}
		if s.LoadFactor < 0 || s.DurationFactor < 0 || s.MaxWaitFactor < 0 {
			return nil, errf(s.Line, "serve: negative load/duration/wait factors")
		}
	}

	for _, ev := range sc.Events {
		t := eventTypeOf(ev.Type)
		if t == nil {
			return nil, errf(ev.Line, "unknown event type %q (known types are %s)", ev.Type,
				known(eventTypes, func(t *eventType) string { return t.name }))
		}
		if err := t.holds(ev.Line, "event", ev.set(), have); err != nil {
			return nil, err
		}
		// Where the slot is looked up: fleet slots, or serving replicas.
		limit, what := world, "-device fleet"
		switch {
		case !slices.Contains(t.planes, ev.Plane):
			return nil, errf(ev.Line, "event %s does not target plane %q (it targets %s)", t.name, ev.Plane, strings.Join(t.planes, " or "))
		case ev.Plane == PlaneServe && sc.Serve == nil:
			return nil, errf(ev.Line, "serve-plane event needs %s", hasServe)
		case ev.Plane == PlaneServe:
			limit, what = sc.Serve.Replicas, " serving replicas"
		}
		switch {
		case ev.Slot < 0 || ev.Slot >= limit:
			return nil, errf(ev.Line, "event slot %d outside the %d%s", ev.Slot, limit, what)
		case ev.At < 0:
			return nil, errf(ev.Line, "negative event time %g", ev.At)
		case ev.Factor != 0 && ev.Factor < 1:
			return nil, errf(ev.Line, "event %s: factor %g is not a slowdown or a burst (want factor >= 1)", t.name, ev.Factor)
		case ev.AtFrac < 0 || ev.AtFrac >= 1:
			return nil, errf(ev.Line, "event %s: at-frac %g outside [0, 1)", t.name, ev.AtFrac)
		case ev.DurationFrac < 0 || ev.AtFrac+ev.DurationFrac > 1:
			return nil, errf(ev.Line, "event %s: window [%g, %g] outside (0, 1]", t.name, ev.AtFrac, ev.AtFrac+ev.DurationFrac)
		}
	}

	for _, a := range sc.Assertions {
		k := kindOf(a.Kind)
		if k == nil {
			return nil, errf(a.Line, "unknown assertion kind %q (known kinds are %s)", a.Kind,
				known(assertionKinds, func(k *assertionKind) string { return k.name }))
		}
		if err := k.holds(a.Line, "assertion", a.set(), have); err != nil {
			return nil, err
		}
		if a.Value < 0 {
			return nil, errf(a.Line, "assertion %s: negative \"value:\" %g", k.name, a.Value)
		}
		if k.hexText {
			if _, err := hex.DecodeString(a.Text); err != nil {
				return nil, errf(a.Line, "assertion %s needs a hex \"text:\" value", k.name)
			}
		}
	}
	return plane, nil
}

// holds checks one item (an event, an assertion) against its row: every
// operand the row needs is set, none is set that the row does not read —
// the run would ignore it — and the run has what the row needs of it.
func (r *row) holds(line int, what string, set operand, have feature) *ParseError {
	if missing := r.needs &^ set; missing != 0 {
		return errf(line, "%s %s needs %s", what, r.name, missing)
	}
	if extra := set &^ (r.needs | r.takes); extra != 0 {
		return errf(line, "%s %s does not read %s (it takes %s)", what, r.name, extra, r.needs|r.takes)
	}
	if lack := r.on &^ have; lack != 0 {
		return errf(line, "%s %s needs %s", what, r.name, lack)
	}
	return nil
}

// set reports which operands an item carries. Non-zero is set: a zero
// operand cannot be told from an absent one, in a file or in a Go literal.
func (a Assertion) set() operand {
	return opValue.when(a.Value != 0) | opMetric.when(a.Metric != "") | opText.when(a.Text != "")
}

func (ev EventSpec) set() operand {
	return opSlot.when(ev.Slot != 0) | opAt.when(ev.At != 0) | opFactor.when(ev.Factor != 0) |
		opCode.when(ev.Code != 0) | opMsg.when(ev.Msg != "") |
		opAtFrac.when(ev.AtFrac != 0) | opDurationFrac.when(ev.DurationFrac != 0)
}

// when is o if set holds and no operand otherwise.
func (o operand) when(set bool) operand {
	if set {
		return o
	}
	return 0
}

// ParseFile reads and parses path, stamping the file name onto errors.
func ParseFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return ParseNamed(path, string(data))
}
