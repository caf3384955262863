package scenario

import (
	"errors"
	"strings"
	"testing"

	"gnnmark/internal/backend"
	"gnnmark/internal/core"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/ops"
)

// fullScenario exercises every section of the grammar.
const fullScenario = `# A kitchen-sink scenario.
scenario: full-grammar
seed: 7
fleet:
  nodes:
    - preset: v100
      gpus: 2
    - preset: a100   # trailing comment
      gpus: 1
      hbm-gb: 40
workload:
  key: ARGA
  dataset: cora
  parallelism: ddp
  epochs: 2
  backend: serial
  warps: 64
events:
  - type: thermal-throttle
    slot: 1
    at: 0.002
    factor: 2.5
  - type: xid
    slot: 2
    at: 0.004
    code: 79
    msg: "fell off the \"bus\""
serve:
  replicas: 2
  max-batch: 4
  load-factor: 0.8
assertions:
  - kind: rerun-digest
  - kind: completed-epochs-min
    value: 2
  - kind: metric-max
    metric: vmem.peak_bytes
    value: 4000000000
`

func TestParseFullGrammar(t *testing.T) {
	sc, err := Parse(fullScenario)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if sc.Name != "full-grammar" || sc.Seed != 7 {
		t.Fatalf("header: got name=%q seed=%d", sc.Name, sc.Seed)
	}
	if len(sc.Fleet.Nodes) != 2 {
		t.Fatalf("fleet nodes: got %d, want 2", len(sc.Fleet.Nodes))
	}
	n1 := sc.Fleet.Nodes[1]
	if n1.Preset != "a100" || n1.GPUs != 1 || n1.HBMGB != 40 {
		t.Fatalf("node[1]: got %+v", n1)
	}
	slots, err := sc.Fleet.Slots()
	if err != nil {
		t.Fatalf("Slots: %v", err)
	}
	if len(slots) != 3 {
		t.Fatalf("slots: got %d, want 3", len(slots))
	}
	if slots[2].HBMBytes != 40<<30 {
		t.Fatalf("hbm override: got %d bytes", slots[2].HBMBytes)
	}
	if sc.Workload.Key != "ARGA" || sc.Workload.Dataset != "cora" || sc.Workload.Warps != 64 {
		t.Fatalf("workload: got %+v", sc.Workload)
	}
	if len(sc.Events) != 2 {
		t.Fatalf("events: got %d, want 2", len(sc.Events))
	}
	if ev := sc.Events[0]; ev.Type != "thermal-throttle" || ev.Slot != 1 || ev.At != 0.002 || ev.Factor != 2.5 || ev.Plane != "" {
		t.Fatalf("event[0]: got %+v", ev)
	}
	if ev := sc.Events[1]; ev.Code != 79 || ev.Msg != `fell off the "bus"` {
		t.Fatalf("event[1]: got %+v", ev)
	}
	if sc.Serve == nil || sc.Serve.Replicas != 2 || sc.Serve.LoadFactor != 0.8 {
		t.Fatalf("serve: got %+v", sc.Serve)
	}
	if len(sc.Assertions) != 3 {
		t.Fatalf("assertions: got %d, want 3", len(sc.Assertions))
	}
	if a := sc.Assertions[2]; a.Kind != "metric-max" || a.Metric != "vmem.peak_bytes" || a.Value != 4e9 {
		t.Fatalf("assertion[2]: got %+v", a)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestParseErrors drives every rejection path and checks the reported line.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		line int
		want string
	}{
		{"empty", "", 1, "empty scenario document"},
		{"comment only", "# nothing\n", 1, "empty scenario document"},
		{"tab indent", "scenario: x\nfleet:\n\tnodes: 1\n", 3, "tab in indentation"},
		{"bad indent", "scenario: x\nworkload:\n  key: ARGA\n    epochs: 2\n", 4, "unexpected indent"},
		{"indented start", "  scenario: x\n", 1, "column 0"},
		{"top-level list", "- a\n- b\n", 1, "top level must be a mapping"},
		{"no colon", "scenario\n", 1, `expected "key: value"`},
		{"bad key", "scen ario: x\n", 1, "invalid key"},
		{"missing space", "scenario:x\n", 1, "missing space"},
		{"duplicate key", "scenario: x\nseed: 1\nseed: 2\n", 3, `duplicate key "seed"`},
		{"dup in nested", "scenario: x\nworkload:\n  key: ARGA\n  key: DGCN\n", 4, `duplicate key "key"`},
		{"no value", "scenario: x\nworkload:\n", 2, `key "workload" has no value`},
		{"list in map", "scenario: x\nworkload:\n  - key: ARGA\n", 0, ""},
		{"map item in scalar list", "scenario: x\nevents:\n  - 3\n  - type: xid\n", 0, ""},
		{"empty list item", "scenario: x\nevents:\n  -\n", 3, "empty list item"},
		{"unknown top key", "scenario: x\nfoo: 1\n", 2, `unknown key "foo" in scenario`},
		{"unknown nested key", "scenario: x\nworkload:\n  key: ARGA\n  turbo: yes\n", 4, `unknown key "turbo" in workload`},
		{"unknown event key", "scenario: x\nevents:\n  - type: xid\n    when: 3\n", 4, `unknown key "when" in event`},
		{"seed type", "scenario: x\nseed: soon\n", 2, "must be an integer"},
		{"quoted int", `scenario: x` + "\n" + `seed: "3"` + "\n", 2, "must be an integer, got a string"},
		{"float type", "scenario: x\nevents:\n  - type: xid\n    at: later\n", 4, "must be a number"},
		{"bool type", "scenario: x\nworkload:\n  key: ARGA\n  overlap: maybe\n", 4, "must be true or false"},
		{"scalar as map", "scenario: x\nworkload: ARGA\n", 2, "workload must be a mapping"},
		{"map as scalar", "scenario: x\nseed:\n  deep: 1\n", 3, "seed must be a scalar"},
		{"scalar events", "scenario: x\nevents: none\n", 2, "events must be a list"},
		{"unterminated string", "scenario: \"x\n", 1, "unterminated string"},
		{"bad escape", `scenario: "a\n"` + "\n", 1, `unsupported escape \n`},
		{"dangling escape", `scenario: "a\` + "\n", 1, "dangling escape"},
		{"trailing after quote", `scenario: "a" b` + "\n", 1, "trailing content after closing quote"},
		{"bare quote", `scenario: a"b` + "\n", 1, "unexpected quote inside bare scalar"},
		{"missing name", "seed: 3\n", 1, `missing "scenario:" name`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse accepted %q", tc.src)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, want *ParseError: %v", err, err)
			}
			if tc.want != "" && !strings.Contains(pe.Msg, tc.want) {
				t.Fatalf("error %q does not mention %q", pe.Msg, tc.want)
			}
			if tc.line != 0 && pe.Line != tc.line {
				t.Fatalf("error at line %d, want %d (%v)", pe.Line, tc.line, pe)
			}
		})
	}
}

func TestParseNamedStampsFile(t *testing.T) {
	_, err := ParseNamed("fleet.yaml", "seed: nope\n")
	if err == nil {
		t.Fatal("ParseNamed accepted bad input")
	}
	if got := err.Error(); !strings.HasPrefix(got, "fleet.yaml:1: ") {
		t.Fatalf("error %q does not lead with file:line", got)
	}
}

// validBase is a minimal valid scenario the Validate tests perturb.
func validBase() *Scenario {
	sc, err := Parse("scenario: base\nfleet:\n  nodes:\n    - preset: v100\nworkload:\n  key: ARGA\n")
	if err != nil {
		panic(err)
	}
	return sc
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no fleet", func(sc *Scenario) { sc.Fleet.Nodes = nil }, "no fleet nodes"},
		{"bad preset", func(sc *Scenario) { sc.Fleet.Nodes[0].Preset = "tpu" }, "unknown GPU preset"},
		{"negative hbm", func(sc *Scenario) { sc.Fleet.Nodes[0].HBMGB = -1 }, "negative hbm-gb"},
		{"bad workload", func(sc *Scenario) { sc.Workload.Key = "GPT" }, "unknown workload"},
		{"bad dataset", func(sc *Scenario) { sc.Workload.Dataset = "karate" }, "no dataset"},
		{"bad backend", func(sc *Scenario) { sc.Workload.Backend = "cuda" }, "backend"},
		{"bad parallelism", func(sc *Scenario) { sc.Workload.Parallelism = "model" }, "unknown parallelism"},
		// "single" names a train plane, not a parallelism: check used to accept
		// it and run then died in core without a line.
		{"parallelism single", func(sc *Scenario) { sc.Workload.Parallelism = "single" }, `unknown parallelism "single" (want ddp or partitioned)`},
		{"parallelism single, two slots", func(sc *Scenario) {
			sc.Fleet.Nodes[0].GPUs = 2
			sc.Workload.Parallelism = "single"
		}, `unknown parallelism "single"`},
		{"negative epochs", func(sc *Scenario) { sc.Workload.Epochs = -1 }, "negative Epochs"},
		{"partitioned unsupported", func(sc *Scenario) {
			sc.Fleet.Nodes[0].GPUs = 2
			sc.Workload.Key = "PSAGE"
			sc.Workload.Parallelism = "partitioned"
		}, "does not support partitioned"},
		{"partitioned solo", func(sc *Scenario) { sc.Workload.Parallelism = "partitioned" }, "more than one device"},
		{"serve unservable", func(sc *Scenario) {
			sc.Workload.Key = "STGCN"
			sc.Serve = &ServeSpec{}
		}, "does not serve embeddings"},
		{"serve partitioned", func(sc *Scenario) {
			sc.Fleet.Nodes[0].GPUs = 2
			sc.Workload.Parallelism = "partitioned"
			sc.Serve = &ServeSpec{}
		}, "full weights to freeze"},
		{"bad event type", func(sc *Scenario) { sc.Events = []EventSpec{{Type: "meteor", Plane: PlaneTrain}} }, `unknown event type "meteor" (known types are xid, `},
		{"bad event plane", func(sc *Scenario) { sc.Events = []EventSpec{{Type: "xid", Plane: "disk"}} }, `does not target plane "disk"`},
		{"event slot", func(sc *Scenario) { sc.Events = []EventSpec{{Type: "xid", Plane: PlaneTrain, Slot: 3}} }, "outside the 1-device fleet"},
		{"event time", func(sc *Scenario) { sc.Events = []EventSpec{{Type: "xid", Plane: PlaneTrain, At: -1}} }, "negative event time"},
		{"loader-kill multi", func(sc *Scenario) {
			sc.Fleet.Nodes[0].GPUs = 2
			sc.Workload.PipelineDepth = 2
			sc.Events = []EventSpec{{Type: "loader-kill", Plane: PlaneTrain}}
		}, "single-device"},
		{"loader-kill no pipeline", func(sc *Scenario) {
			sc.Events = []EventSpec{{Type: "loader-kill", Plane: PlaneTrain}}
		}, "pipeline-depth"},
		{"serve event no serve", func(sc *Scenario) {
			sc.Events = []EventSpec{{Type: "serve-burst", Plane: PlaneServe, DurationFrac: 0.2, Factor: 2}}
		}, `needs a "serve:" section`},
		{"burst window", func(sc *Scenario) {
			sc.Serve = &ServeSpec{}
			sc.Events = []EventSpec{{Type: "serve-burst", Plane: PlaneServe, AtFrac: 0.9, DurationFrac: 0.5, Factor: 2}}
		}, "outside"},
		{"burst factor", func(sc *Scenario) {
			sc.Serve = &ServeSpec{}
			sc.Events = []EventSpec{{Type: "serve-burst", Plane: PlaneServe, DurationFrac: 0.2, Factor: 0.5}}
		}, "factor >= 1"},
		{"bad assertion kind", func(sc *Scenario) { sc.Assertions = []Assertion{{Kind: "vibes-good"}} }, `unknown assertion kind "vibes-good" (known kinds are rerun-digest, `},
		{"assertion value", func(sc *Scenario) { sc.Assertions = []Assertion{{Kind: "loss-max"}} }, `loss-max needs "value:"`},
		{"metric name", func(sc *Scenario) { sc.Assertions = []Assertion{{Kind: "metric-max", Value: 1}} }, `metric-max needs "metric:"`},
		{"digest hex", func(sc *Scenario) { sc.Assertions = []Assertion{{Kind: "digest", Text: "zz"}} }, "hex"},
		{"abort text", func(sc *Scenario) { sc.Assertions = []Assertion{{Kind: "expect-abort"}} }, `expect-abort needs "text:"`},
		{"elastic assertion solo", func(sc *Scenario) {
			sc.Assertions = []Assertion{{Kind: "goodput-min", Value: 0.5}}
		}, "elastic ddp"},
		{"serve assertion no serve", func(sc *Scenario) {
			sc.Assertions = []Assertion{{Kind: "serve-qps-min", Value: 1}}
		}, `needs a "serve:" section`},
		// Keys the run would ignore (all accepted by check and run before).
		{"rerun-digest value", func(sc *Scenario) { sc.Assertions = []Assertion{{Kind: "rerun-digest", Value: 3}} }, `rerun-digest does not read "value:" (it takes nothing)`},
		{"rerun-digest metric", func(sc *Scenario) { sc.Assertions = []Assertion{{Kind: "rerun-digest", Metric: "m"}} }, `does not read "metric:"`},
		{"loss-max text", func(sc *Scenario) { sc.Assertions = []Assertion{{Kind: "loss-max", Value: 1, Text: "x"}} }, `loss-max does not read "text:" (it takes "value:")`},
		{"digest value", func(sc *Scenario) { sc.Assertions = []Assertion{{Kind: "digest", Text: "ab", Value: 1}} }, `does not read "value:"`},
		{"expect-oom value", func(sc *Scenario) { sc.Assertions = []Assertion{{Kind: "expect-oom", Value: 1}} }, `does not read "value:"`},
		{"expect-abort value", func(sc *Scenario) { sc.Assertions = []Assertion{{Kind: "expect-abort", Text: "xid", Value: 1}} }, `does not read "value:"`},
		{"thermal code", func(sc *Scenario) { sc.Events = []EventSpec{{Type: "thermal-throttle", Code: 79}} }, `thermal-throttle does not read "code:"`},
		{"thermal at-frac", func(sc *Scenario) { sc.Events = []EventSpec{{Type: "thermal-throttle", AtFrac: 0.5}} }, `does not read "at-frac:"`},
		{"burst at", func(sc *Scenario) {
			sc.Serve = &ServeSpec{}
			sc.Events = []EventSpec{{Type: "serve-burst", DurationFrac: 0.2, Factor: 2, At: 0.1}}
		}, `serve-burst does not read "at:" (it takes "factor:", "at-frac:", "duration-frac:")`},
		{"burst slot", func(sc *Scenario) {
			sc.Serve = &ServeSpec{}
			sc.Events = []EventSpec{{Type: "serve-burst", DurationFrac: 0.2, Factor: 2, Slot: 1}}
		}, `does not read "slot:"`},
		{"burst on train", func(sc *Scenario) {
			sc.Serve = &ServeSpec{}
			sc.Events = []EventSpec{{Type: "serve-burst", Plane: PlaneTrain, DurationFrac: 0.2, Factor: 2}}
		}, `does not target plane "train" (it targets serve)`},
		{"throttle factor below 1", func(sc *Scenario) { sc.Events = []EventSpec{{Type: "thermal-throttle", Factor: 0.5}} }, "factor >= 1"},
		{"overlap solo", func(sc *Scenario) { sc.Workload.Overlap = true }, "workload.overlap is not read without a halo exchange (the partitioned plane)"},
		{"compress-h2d synchronous", func(sc *Scenario) { sc.Workload.CompressH2D = true }, "workload.compress-h2d is not read without workload.pipeline-depth > 0"},
		{"loader-workers synchronous", func(sc *Scenario) { sc.Workload.LoaderWorkers = 2 }, "workload.loader-workers is not read without workload.pipeline-depth > 0"},
		{"pipeline-depth partitioned", func(sc *Scenario) {
			sc.Fleet.Nodes[0].GPUs = 2
			sc.Workload.Parallelism = "partitioned"
			sc.Workload.PipelineDepth = 2
		}, "workload.pipeline-depth is not read without an input pipeline"},
		{"overlap ddp", func(sc *Scenario) {
			sc.Fleet.Nodes[0].GPUs = 2
			sc.Workload.Overlap = true
		}, "workload.overlap is not read without a halo exchange (the partitioned plane)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := validBase()
			tc.mut(sc)
			err := sc.Validate()
			if err == nil {
				t.Fatal("Validate accepted the broken scenario")
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, want *ParseError: %v", err, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestServableSet pins the registry's Servable column — what Validate and
// core's error texts read — against the live builds: exactly the keys whose
// built workloads implement models.Servable.
func TestServableSet(t *testing.T) {
	for _, spec := range core.Registry() {
		env := models.NewEnv(ops.NewWith(gpu.New(gpu.V100()), backend.NewSerial()), 1)
		wl := spec.Build(env, spec.Datasets[0], 1)
		_, servable := wl.(models.Servable)
		if servable != spec.Servable {
			t.Errorf("workload %s: servable=%v, registry says %v", spec.Key, servable, spec.Servable)
		}
	}
}

// FuzzParseScenario asserts the parser's total-function contract: any byte
// string either parses or fails with a *ParseError — never a panic, never
// an untyped error.
func FuzzParseScenario(f *testing.F) {
	f.Add(fullScenario)
	f.Add("scenario: x\n")
	f.Add("scenario: \"q\\\"uote\\\\\"\nseed: 3\n")
	f.Add("a:\n  b:\n    - c: 1\n      d: true\n    - e\n")
	f.Add("k: v # comment\n#only\n\n\n")
	f.Add("events:\n  - -1\n")
	f.Add("\tx: 1\n")
	f.Add("a:b\n")
	// Files that parse and that Validate refuses since the vocabulary became
	// rows: a plane's name as a parallelism, and operands a run would ignore.
	body := "scenario: x\nfleet:\n  nodes:\n    - preset: v100\nworkload:\n  key: ARGA\n"
	f.Add(body + "  parallelism: single\n")
	f.Add(body + "  overlap: true\n  compress-h2d: true\n  loader-workers: 2\n")
	f.Add(body + "assertions:\n  - kind: rerun-digest\n    value: 3\n    metric: m\n  - kind: loss-max\n    value: 1\n    text: t\n")
	f.Add(body + "assertions:\n  - kind: digest\n    text: abcd\n    value: 1\n  - kind: expect-oom\n    value: 1\n")
	f.Add(body + "events:\n  - type: thermal-throttle\n    code: 79\n    at-frac: 0.5\n")
	f.Add(body + "events:\n  - type: serve-burst\n    at: 1\n    slot: 1\n    factor: 2\n    duration-frac: 0.5\nserve:\n  replicas: 2\n")
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := Parse(src)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse returned %T, want *ParseError: %v", err, err)
			}
			if pe.Line < 1 {
				t.Fatalf("ParseError with non-positive line %d: %v", pe.Line, pe)
			}
			return
		}
		if sc == nil {
			t.Fatal("Parse returned nil, nil")
		}
		// Validate must not panic either, and refuses only with a line.
		if err := sc.Validate(); err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) || pe.Line < 1 {
				t.Fatalf("Validate returned %T (%v), want a *ParseError with a line", err, err)
			}
		}
	})
}
