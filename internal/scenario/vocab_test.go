package scenario

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gnnmark/internal/backend"
	"gnnmark/internal/core"
	"gnnmark/internal/fault"
	"gnnmark/internal/gpu"
	"gnnmark/internal/loader"
)

var update = flag.Bool("update", false, "rewrite the scenario reference of DESIGN.md and README.md from the vocabulary rows")

// having builds a valid scenario whose run has exactly the features in f
// that a file can choose: the train plane (elastic, overlaps, else one
// device), a pipeline, a serve section. Every node carries a line, as a
// parsed one would.
func having(f feature) *Scenario {
	sc := &Scenario{Name: "generated",
		Fleet:    Fleet{Nodes: []FleetNode{{Preset: "v100", Line: 3}}},
		Workload: WorkloadSpec{Key: "ARGA", Line: 5}}
	switch {
	case f&elastic != 0:
		sc.Fleet.Nodes[0].GPUs = 2
	case f&overlaps != 0:
		sc.Fleet.Nodes[0].GPUs, sc.Workload.Parallelism = 2, "partitioned"
	}
	if f&hasPipeline != 0 {
		sc.Workload.PipelineDepth = 2
	}
	if f&hasServe != 0 {
		sc.Serve = &ServeSpec{Line: 9}
	}
	return sc
}

// with returns the item with the operands of set given valid values and the
// rest zeroed. It is the test's half of Assertion.set / EventSpec.set.
func (a Assertion) with(set operand) Assertion {
	a.Value, a.Metric, a.Text = 0, "", ""
	if set&opValue != 0 {
		a.Value = 1
	}
	if set&opMetric != 0 {
		a.Metric = "vmem.peak_bytes"
	}
	if set&opText != 0 {
		a.Text = "abcd"
	}
	return a
}

func (ev EventSpec) with(set operand) EventSpec {
	ev = EventSpec{Type: ev.Type, Plane: ev.Plane, Line: ev.Line}
	if set&opSlot != 0 {
		ev.Slot = 1
	}
	if set&opAt != 0 {
		ev.At = 0.001
	}
	if set&opFactor != 0 {
		ev.Factor = 2
	}
	if set&opCode != 0 {
		ev.Code = 31
	}
	if set&opMsg != 0 {
		ev.Msg = "generated"
	}
	if set&opAtFrac != 0 {
		ev.AtFrac = 0.25
	}
	if set&opDurationFrac != 0 {
		ev.DurationFrac = 0.25
	}
	return ev
}

// rejected asserts Validate fails with a *ParseError at a real line whose
// message contains want.
func rejected(t *testing.T, sc *Scenario, want string) {
	t.Helper()
	err := sc.Validate()
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("Validate returned %v (%T), want a *ParseError mentioning %q", err, err, want)
	}
	if pe.Line < 1 || !strings.Contains(pe.Msg, want) {
		t.Fatalf("Validate: line %d: %s\nwant line >= 1 and a mention of %q", pe.Line, pe.Msg, want)
	}
}

// allOperands and allFeatures walk every declared bit.
func allOperands() (out []operand) {
	for i := range operandKeys {
		out = append(out, 1<<i)
	}
	return out
}

func allFeatures() (out []feature) {
	for i := range featureNames {
		out = append(out, 1<<i)
	}
	return out
}

// planeFeatures are the features only the train plane can supply.
const planeFeatures = elastic | oneDevice | pipelines | overlaps | freezable

// lackingRuns lists, for a row that needs `on` of the run, feature sets
// having() can build that each lack part of it: one per file-level feature
// dropped, one per train plane that does not offer what the row needs.
func lackingRuns(on feature) (out []feature) {
	for _, f := range allFeatures() {
		if on&f&^planeFeatures != 0 {
			out = append(out, on&^f)
		}
	}
	for _, p := range trainPlanes {
		if on&planeFeatures&^p.offers != 0 {
			out = append(out, on&^planeFeatures|p.offers&(elastic|overlaps))
		}
	}
	return out
}

// TestVocabularyRows is generated from the tables, so a new row is covered by
// adding it: for every assertion kind and event type, an item with exactly
// the operands its row names validates on a run with what the row needs; a
// needed operand missing, any operand the row does not read set, a plane
// the row does not target and a run lacking something the row needs are each
// a *ParseError at a real line. It also counts the accepted (row, operand)
// pairs CHANGES.md records.
func TestVocabularyRows(t *testing.T) {
	kindPairs, eventPairs := 0, 0
	for i := range assertionKinds {
		k := &assertionKinds[i]
		kindPairs += bits.OnesCount16(uint16(k.needs | k.takes))
		t.Run(k.name, func(t *testing.T) {
			build := func(f feature, set operand) *Scenario {
				sc := having(f)
				sc.Assertions = []Assertion{Assertion{Kind: k.name, Line: 12}.with(set)}
				return sc
			}
			for _, set := range []operand{k.needs, k.needs | k.takes} {
				if err := build(k.on, set).Validate(); err != nil {
					t.Fatalf("with %s on a run that has %s: %v", set, k.on, err)
				}
			}
			for _, op := range allOperands()[:3] {
				if k.needs&op != 0 {
					rejected(t, build(k.on, k.needs&^op), "needs "+op.String())
				} else if k.takes&op == 0 {
					rejected(t, build(k.on, k.needs|op), "does not read "+op.String())
				}
			}
			for _, f := range lackingRuns(k.on) {
				rejected(t, build(f, k.needs), "assertion "+k.name+" needs ")
			}
		})
	}
	for i := range eventTypes {
		et := &eventTypes[i]
		eventPairs += bits.OnesCount16(uint16(et.needs | et.takes))
		t.Run(et.name, func(t *testing.T) {
			build := func(f feature, set operand, plane string) *Scenario {
				sc := having(f)
				if cmp.Or(plane, et.planes[0]) == PlaneServe {
					sc.Serve = &ServeSpec{Line: 9}
				} else if f&(elastic|overlaps) == 0 && et.takes&opSlot != 0 {
					set &^= opSlot // a one-device fleet has only slot 0
				}
				sc.Events = []EventSpec{EventSpec{Type: et.name, Plane: plane, Line: 12}.with(set)}
				return sc
			}
			for _, plane := range []string{PlaneTrain, PlaneServe, "disk"} {
				if !slices.Contains(et.planes, plane) {
					rejected(t, build(et.on, et.needs, plane), "does not target plane")
					continue
				}
				for _, set := range []operand{et.needs, et.needs | et.takes} {
					if err := build(et.on, set, plane).Validate(); err != nil {
						t.Fatalf("with %s on plane %s of a run that has %s: %v", set, plane, et.on, err)
					}
				}
				for _, op := range allOperands()[3:] {
					if et.needs&op != 0 {
						rejected(t, build(et.on, et.needs&^op, plane), "needs "+op.String())
					} else if et.takes&op == 0 {
						rejected(t, build(et.on, et.needs|op, plane), "does not read "+op.String())
					}
				}
				for _, f := range lackingRuns(et.on) {
					rejected(t, build(f, et.needs, plane), "") // the workload block may be what is refused first
				}
			}
			if err := build(et.on, et.needs, "").Validate(); err != nil {
				t.Fatalf("with no plane named (default %s): %v", et.planes[0], err)
			}
		})
	}
	t.Logf("accepted (kind, operand) pairs: %d of %d; (event, operand) pairs: %d of %d",
		kindPairs, 3*len(assertionKinds), eventPairs, 7*len(eventTypes))
}

// TestValidateAcceptsOnlyWhatCoreResolves is the property `parallelism:
// single` broke: over every registry workload, a fleet of one and of two
// slots and every parallelism value (the declared ones, none, a plane's name
// that is not one, a typo), whatever Validate accepts lowers to a
// core.RunConfig that core resolves — with no training.
func TestValidateAcceptsOnlyWhatCoreResolves(t *testing.T) {
	values := append([]string{"", "single", "model"}, core.Parallelisms()...)
	accepted := 0
	for _, spec := range core.Registry() {
		for gpus := 1; gpus <= 2; gpus++ {
			for _, par := range values {
				sc := having(0)
				sc.Workload.Key, sc.Workload.Parallelism, sc.Fleet.Nodes[0].GPUs = spec.Key, par, gpus
				r, plane, cfg, err := sc.resolve()
				if err != nil {
					var pe *ParseError
					if !errors.As(err, &pe) || pe.Line < 1 {
						t.Errorf("%s x %d x %q: %v is not a *ParseError with a line", spec.Key, gpus, par, err)
					}
					continue
				}
				accepted++
				if _, _, err := cfg.Resolve(); err != nil {
					t.Errorf("%s x %d x %q: Validate accepts, core rejects: %v", spec.Key, gpus, par, err)
				}
				if cfg.GPUs != gpus || cfg.Parallelism != r.Workload.Parallelism {
					t.Errorf("%s x %d x %q: lowered to %d GPUs, parallelism %q", spec.Key, gpus, par, cfg.GPUs, cfg.Parallelism)
				}
				if wantSingle := gpus == 1; wantSingle != (plane == &trainPlanes[0]) || !wantSingle && plane.name != cfg.Parallelism {
					t.Errorf("%s x %d x %q: runs on plane %s", spec.Key, gpus, par, plane.name)
				}
				if plane.offers&overlaps != 0 && !spec.Partitioned {
					t.Errorf("%s x %d x %q: accepted on the partitioned plane without a partition builder", spec.Key, gpus, par)
				}
			}
		}
	}
	// Per workload: "" and ddp on either fleet, plus partitioned on two slots
	// where the workload has a partition builder.
	if want := 4*len(core.Registry()) + len(core.PartitionedWorkloads()); accepted != want {
		t.Errorf("accepted %d of the cross product, want %d", accepted, want)
	}
	for _, p := range trainPlanes[1:] {
		found := false
		for _, par := range core.Parallelisms() {
			found = found || par == p.name
		}
		if !found {
			t.Errorf("train plane %s is no core parallelism (%v)", p.name, core.Parallelisms())
		}
	}
}

// reference renders the scenario language reference from the rows: what the
// marked blocks of DESIGN.md §14 and README.md hold.
func reference() string {
	var b strings.Builder
	tick := func(s string) string { return "`" + s + "`" }
	operands := func(o operand) string {
		if o == 0 {
			return "—"
		}
		return strings.ReplaceAll(strings.ReplaceAll(o.String(), `"`, "`"), ":", "")
	}
	needsOf := func(f feature) string {
		if f == 0 {
			return "—"
		}
		return strings.ReplaceAll(f.String(), `"`, "`")
	}
	preset, _ := gpu.Preset("")
	v100, _ := gpu.Preset("v100")
	be, _ := backend.New("", nil)
	if preset.Name != v100.Name || be.Name() != "serial" {
		panic("the preset or backend default moved: update reference()")
	}

	b.WriteString("Events (`events:` items; `type` picks the row, `plane` defaults to the first listed). An operand outside a row's two operand columns is an error, as is a zero one that must be set:\n\n")
	b.WriteString("| type | planes | must set | may set | needs of the run | effect |\n|---|---|---|---|---|---|\n")
	for _, t := range eventTypes {
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s |\n", tick(t.name), strings.Join(t.planes, ", "),
			operands(t.needs), operands(t.takes), needsOf(t.on), t.doc)
	}
	b.WriteString("\nAssertions (`assertions:` items; `kind` picks the row):\n\n")
	b.WriteString("| kind | must set | may set | needs of the run | holds when |\n|---|---|---|---|---|\n")
	for _, k := range assertionKinds {
		doc := k.doc
		if k.measure != nil {
			doc += " <= `value`"
			if k.floor {
				doc = k.doc + " >= `value`"
			}
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n", tick(k.name), operands(k.needs), operands(k.takes), needsOf(k.on), doc)
	}
	b.WriteString("\nTrain planes (a one-slot fleet trains on the first; a larger one on the plane `workload.parallelism` names):\n\n")
	b.WriteString("| plane | a run on it has |\n|---|---|\n")
	for _, p := range trainPlanes {
		fmt.Fprintf(&b, "| %s | %s |\n", tick(p.name), p.offers)
	}
	b.WriteString("\nDefaults (a zero or absent key reads as its default):\n\n| key | default |\n|---|---|\n")
	for _, d := range [][2]string{
		{"seed", fmt.Sprint(defaultSeed)},
		{"fleet.nodes[].preset", "v100"},
		{"fleet.nodes[].gpus", fmt.Sprint(defaultGPUs)},
		{"fleet.nodes[].hbm-gb", "the preset's"},
		{"workload.dataset", "the workload's first"},
		{"workload.parallelism", core.Parallelisms()[0]},
		{"workload.epochs", fmt.Sprint(defaultEpochs)},
		{"workload.backend", be.Name()},
		{"workload.warps", fmt.Sprint(defaultWarps)},
		{"workload.pipeline-depth", "0 (synchronous input)"},
		{"workload.loader-workers", fmt.Sprintf("min(pipeline-depth, %d)", loader.DefaultWorkers(math.MaxInt))},
		{"events[].plane", "the first plane of the type's row"},
		{"events[].code", fmt.Sprint(defaultXIDCode)},
		{"events[].factor", fmt.Sprintf("%v for %s, %v for %s", fault.DefaultThermalFactor, fault.ThermalThrottle, fault.DefaultNVLinkFactor, fault.NVLinkDegrade)},
		{"serve.replicas", fmt.Sprint(defaultServeReplicas)},
		{"serve.max-batch", fmt.Sprint(defaultServeMaxBatch)},
		{"serve.max-wait-factor", fmt.Sprint(defaultMaxWaitFactor)},
		{"serve.queue-cap", fmt.Sprintf("%d (negative: unbounded)", defaultServeQueueCap)},
		{"serve.cache-rows", "0 (no cache)"},
		{"serve.load-factor", fmt.Sprint(defaultLoadFactor)},
		{"serve.duration-factor", fmt.Sprint(defaultDurationFactor)},
	} {
		fmt.Fprintf(&b, "| %s | %s |\n", tick(d[0]), d[1])
	}
	return b.String()
}

// TestDocsListTheVocabulary holds the scenario reference of DESIGN.md §14 and
// of README.md to the rows, byte for byte: a row, an operand or a default
// that changes fails here until `go test ./internal/scenario -run
// TestDocsListTheVocabulary -update` has rewritten both.
func TestDocsListTheVocabulary(t *testing.T) {
	const open, end = "<!-- scenario:vocabulary -->\n", "<!-- /scenario:vocabulary -->"
	want := reference()
	for _, name := range []string{"DESIGN.md", "README.md"} {
		path := filepath.Join("..", "..", name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc := string(raw)
		i, j := strings.Index(doc, open), strings.Index(doc, end)
		if i < 0 || j < i {
			t.Fatalf("%s has no %q ... %q block", name, strings.TrimSpace(open), end)
		}
		i += len(open)
		if doc[i:j] != want && !*update {
			t.Errorf("%s's scenario reference differs from the vocabulary rows (-update rewrites it)\n--- %s\n%s--- rows\n%s", name, name, doc[i:j], want)
		}
		if *update {
			if err := os.WriteFile(path, []byte(doc[:i]+want+doc[j:]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
