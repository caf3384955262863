package scenario

import (
	"fmt"
	"strings"

	"gnnmark/internal/core"
	"gnnmark/internal/fault"
)

// This file is the scenario vocabulary, written once: each default, train
// plane, event type and assertion kind is one row here, and Validate,
// Execute, the error texts and the reference in DESIGN.md and README.md
// read the rows. Nothing else names a kind, a type or a default value, but
// loader-workers defaults to the loader's own rule (loader.DefaultWorkers).

// Defaults: what resolve reads a zero (unset) Scenario field as.
const (
	defaultSeed = 1
	defaultGPUs = 1 // per fleet node
	// Short epochs and the fast sampling tier: committed scenarios run on
	// every CI push.
	defaultEpochs  = 2
	defaultWarps   = 512
	defaultXIDCode = 79 // "GPU has fallen off the bus", the canonical fatal XID
	// Serving rates and horizons are multiples of the measured batch-1
	// service time, so files stay meaningful as the device model evolves.
	defaultServeReplicas  = 2
	defaultServeMaxBatch  = 8
	defaultServeQueueCap  = 64
	defaultLoadFactor     = 1.0
	defaultDurationFactor = 200.0
	defaultMaxWaitFactor  = 1.0
)

// operand is a set of the per-item keys an event or an assertion carries.
type operand uint16

const (
	opValue operand = 1 << iota
	opMetric
	opText
	opSlot
	opAt
	opFactor
	opCode
	opMsg
	opAtFrac
	opDurationFrac
)

// operandKeys spells each operand bit as its file key, in bit order.
var operandKeys = [...]string{"value", "metric", "text", "slot", "at", "factor", "code", "msg", "at-frac", "duration-frac"}

// feature is a set of things a run has: what a train plane offers and the
// file declares on one side, what a row needs of the run on the other.
type feature uint8

const (
	hasServe feature = 1 << iota
	hasPipeline
	elastic
	oneDevice
	pipelines
	overlaps
	freezable
)

// featureNames says each feature bit the way an error names a missing one.
var featureNames = [...]string{
	`a "serve:" section`,
	"workload.pipeline-depth > 0",
	"elastic ddp training (fleet > 1 device)",
	"a single-device fleet",
	"an input pipeline (single device or ddp)",
	"a halo exchange (the partitioned plane)",
	"one replica's full weights to freeze (single device or ddp)",
}

// list renders the set bits of mask, named by names, for errors and docs.
func list(mask uint, names []string, quote string) string {
	var out []string
	for i, n := range names {
		if mask&(1<<i) != 0 {
			out = append(out, fmt.Sprintf(quote, n))
		}
	}
	if out == nil {
		return "nothing"
	}
	return strings.Join(out, ", ")
}

func (o operand) String() string { return list(uint(o), operandKeys[:], `"%s:"`) }
func (f feature) String() string { return list(uint(f), featureNames[:], "%s") }

// trainPlane is one executor branch of the training phase: its name is
// Outcome.Plane and, for a multi-device plane, the core.Parallelisms value
// that selects it.
type trainPlane struct {
	name   string
	offers feature
	run    func(*Scenario, core.RunConfig, *Outcome) error
}

// A one-slot fleet trains on the first plane whatever the file says, a
// larger one on the plane its parallelism names. Every multi-device DDP run
// goes through the elastic controller, so a fatal event there means
// recovery; the partitioned plane aborts cleanly on one.
var trainPlanes = []trainPlane{
	{name: "single", offers: oneDevice | pipelines | freezable, run: (*Scenario).runSingle},
	{name: "ddp", offers: elastic | pipelines | freezable, run: (*Scenario).runElastic},
	{name: "partitioned", offers: overlaps, run: (*Scenario).runPartitioned},
}

// row is what an event type and an assertion kind share: a name, the
// operands an item must set (needs) and may set (takes) — any other one set
// is an error, because the run would ignore it — what it needs of the run
// (on), and a line for the reference.
type row struct {
	name         string
	needs, takes operand
	on           feature
	doc          string
}

// lowering is what an event compiles to.
type lowering int

const (
	toFault      lowering = iota // a fault.Event on the slot's (or replica's) health monitor
	toLoaderKill                 // the input pipeline rebuilt one worker short at the next epoch boundary
	toServeBurst                 // extra Poisson arrivals over a window of the serving horizon
)

// eventType is one event row: the planes an event may target (one that
// names none lands on the first) and what it lowers to. Fault-plane types
// take their name from the fault taxonomy, so it is spelt only there.
type eventType struct {
	row
	planes []string
	lower  lowering
	fault  fault.EventType // lower == toFault
}

var (
	onTrain  = []string{PlaneTrain}
	onEither = []string{PlaneTrain, PlaneServe}
	onServe  = []string{PlaneServe}
)

const opWhen = opSlot | opAt // which device, and when on its clock

var eventTypes = []eventType{
	{row: row{name: fault.XID.String(), takes: opWhen | opCode | opMsg,
		doc: "fatal driver XID number `code` on the slot"}, planes: onTrain, fault: fault.XID},
	{row: row{name: fault.ECCSBE.String(), takes: opWhen | opMsg,
		doc: "corrected single-bit ECC error: logged, changes nothing"}, planes: onTrain, fault: fault.ECCSBE},
	{row: row{name: fault.ECCDBE.String(), takes: opWhen | opMsg,
		doc: "uncorrectable double-bit ECC error: fatal"}, planes: onTrain, fault: fault.ECCDBE},
	{row: row{name: fault.ThermalThrottle.String(), takes: opWhen | opFactor | opMsg,
		doc: "kernels and copies on the slot (train) or serving replica (serve) slow by `factor` from `at` on"},
		planes: onEither, fault: fault.ThermalThrottle},
	{row: row{name: fault.NVLinkDegrade.String(), takes: opWhen | opFactor | opMsg,
		doc: "collectives and halo exchanges through the slot slow by `factor` from `at` on"},
		planes: onTrain, fault: fault.NVLinkDegrade},
	{row: row{name: fault.ReplicaLoss.String(), takes: opWhen | opMsg,
		doc: "the slot's whole replica dies (node crash, preemption): fatal"}, planes: onTrain, fault: fault.ReplicaLoss},
	{row: row{name: "loader-kill", takes: opWhen, on: oneDevice | hasPipeline,
		doc: "a loader worker dies: at the first epoch boundary past `at` the run checkpoints, rebuilds the pipeline one worker short, restores and resumes"},
		planes: onTrain, lower: toLoaderKill},
	{row: row{name: "serve-burst", needs: opFactor | opDurationFrac, takes: opAtFrac,
		doc: "arrivals burst to `factor` x the base rate over the window [`at-frac`, `at-frac`+`duration-frac`] of the serving horizon"},
		planes: onServe, lower: toServeBurst},
}

// assertionKind is one assertion row.
type assertionKind struct {
	row
	// oom/abort mark the kinds that declare a failed run expected; without
	// one, Run fails a run that ended that way whatever else it asserts.
	oom, abort bool
	hexText    bool // the text operand must be hex (a digest)
	// measure makes this a bounding kind, as most are: it returns the
	// quantity doc names (printed with verb), which must stay at or below
	// `value` — at or above it for a floor — or false when the run has
	// nothing to measure and the assertion fails with absent.
	measure func(a Assertion, out *Outcome) (float64, bool)
	floor   bool
	verb    string
	absent  string
	// check is any other kind's test: "" when the outcome satisfies it,
	// what the run showed instead otherwise. rerun executes the scenario
	// again from scratch (handed in: a row that named Execute would be an
	// initialization cycle through Validate).
	check func(a Assertion, out *Outcome, rerun func() (*Outcome, error)) string
}

var assertionKinds = []assertionKind{
	{row: row{name: "rerun-digest", doc: "a second execution from scratch reproduces the digest byte for byte"},
		check: func(_ Assertion, out *Outcome, rerun func() (*Outcome, error)) string {
			again, err := rerun()
			if err != nil {
				return fmt.Sprintf("rerun failed: %v", err)
			}
			if again.Digest != out.Digest {
				return fmt.Sprintf("rerun digest %s != first run %s (nondeterminism)", again.Digest, out.Digest)
			}
			return ""
		}},
	{row: row{name: "digest", needs: opText, doc: "the outcome digest equals the hex `text`"}, hexText: true,
		check: func(a Assertion, out *Outcome, _ func() (*Outcome, error)) string {
			if out.Digest != a.Text {
				return fmt.Sprintf("digest %s, want %s", out.Digest, a.Text)
			}
			return ""
		}},
	{row: row{name: "epoch-seconds-max", needs: opValue, doc: "mean simulated seconds per kept epoch"}, verb: "%.6f",
		measure: func(_ Assertion, o *Outcome) (float64, bool) { return meanEpochSeconds(o), true }},
	{row: row{name: "total-seconds-max", needs: opValue, doc: "simulated makespan in seconds"}, verb: "%.6f",
		measure: func(_ Assertion, o *Outcome) (float64, bool) { return o.TotalSeconds, true }},
	{row: row{name: "loss-max", needs: opValue, doc: "loss of the last kept epoch"}, verb: "%.6f", absent: "no epochs completed, no loss to bound",
		measure: func(_ Assertion, o *Outcome) (float64, bool) {
			if len(o.Losses) == 0 {
				return 0, false
			}
			return o.Losses[len(o.Losses)-1], true
		}},
	{row: row{name: "completed-epochs-min", needs: opValue, doc: "kept epochs"}, floor: true, verb: "%.0f",
		measure: func(_ Assertion, o *Outcome) (float64, bool) { return float64(o.CompletedEpochs), true }},
	{row: row{name: "goodput-min", needs: opValue, on: elastic, doc: "useful / total simulated seconds"}, floor: true, verb: "%.4f",
		measure: func(_ Assertion, o *Outcome) (float64, bool) { return o.Goodput, true }},
	{row: row{name: "recovery-deadline", needs: opValue, on: elastic, doc: "mean recovery overhead (rendezvous + reload) in seconds"}, verb: "%.3f",
		absent: "no recoveries happened; deadline unmeasurable (schedule a fatal event)",
		measure: func(_ Assertion, o *Outcome) (float64, bool) {
			return o.OverheadSeconds / float64(o.Recoveries), o.Recoveries > 0
		}},
	{row: row{name: "recoveries-min", needs: opValue, on: elastic, doc: "elastic recoveries"}, floor: true, verb: "%.0f",
		measure: func(_ Assertion, o *Outcome) (float64, bool) { return float64(o.Recoveries), true }},
	{row: row{name: "survivors-min", needs: opValue, on: elastic, doc: "fleet slots still training at the end"}, floor: true, verb: "%.0f",
		measure: func(_ Assertion, o *Outcome) (float64, bool) { return float64(len(o.Survivors)), true }},
	{row: row{name: "metric-max", needs: opValue | opMetric, doc: "the obs metric `metric` (counter or gauge value, histogram count)"}, verb: "%.0f",
		absent: "metric not recorded this run", measure: func(a Assertion, o *Outcome) (float64, bool) { return lookupMetric(o, a.Metric) }},
	{row: row{name: "metric-min", needs: opValue | opMetric, doc: "the obs metric `metric`"}, floor: true, verb: "%.0f",
		absent: "metric not recorded this run", measure: func(a Assertion, o *Outcome) (float64, bool) { return lookupMetric(o, a.Metric) }},
	{row: row{name: "expect-oom", doc: "the run ends in a simulated device OOM"}, oom: true,
		check: func(_ Assertion, out *Outcome, _ func() (*Outcome, error)) string {
			if !out.OOM {
				return "run completed without the expected OOM"
			}
			return ""
		}},
	{row: row{name: "expect-abort", needs: opText, doc: "the run ends in a fatal health abort whose message contains `text`"}, abort: true,
		check: func(a Assertion, out *Outcome, _ func() (*Outcome, error)) string {
			if !out.Aborted {
				return "run completed without the expected abort"
			}
			if !strings.Contains(out.FailMsg, a.Text) {
				return fmt.Sprintf("abort %q does not mention %q", out.FailMsg, a.Text)
			}
			return ""
		}},
	{row: row{name: "serve-qps-min", needs: opValue, on: hasServe, doc: "served requests per simulated second"}, floor: true, verb: "%.0f",
		measure: func(_ Assertion, o *Outcome) (float64, bool) { return o.Serve.QPS, true }},
	{row: row{name: "serve-p99-max-us", needs: opValue, on: hasServe, doc: "p99 request latency in simulated microseconds"}, verb: "%.2f",
		measure: func(_ Assertion, o *Outcome) (float64, bool) { return o.Serve.P99 * 1e6, true }},
	{row: row{name: "serve-rejected-max", takes: opValue, on: hasServe, doc: "rejected requests"}, verb: "%.0f",
		measure: func(_ Assertion, o *Outcome) (float64, bool) { return float64(o.Serve.Rejected), true }},
	{row: row{name: "serve-hit-rate-min", needs: opValue, on: hasServe, doc: "embedding-cache hit rate"}, floor: true, verb: "%.3f",
		measure: func(_ Assertion, o *Outcome) (float64, bool) { return o.Serve.HitRate(), true }},
}

// eventTypeOf and kindOf find a row by name (nil = unknown). The tables
// are a handful of rows, so a scan beats a map and allocates nothing.
func eventTypeOf(name string) *eventType {
	for i := range eventTypes {
		if eventTypes[i].name == name {
			return &eventTypes[i]
		}
	}
	return nil
}

func kindOf(name string) *assertionKind {
	for i := range assertionKinds {
		if assertionKinds[i].name == name {
			return &assertionKinds[i]
		}
	}
	return nil
}

// known lists a table's names for an "unknown ..." error.
func known[T any](rows []T, name func(*T) string) string {
	names := make([]string, len(rows))
	for i := range rows {
		names[i] = name(&rows[i])
	}
	return strings.Join(names, ", ")
}
