package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"strings"
	"testing"

	"gnnmark/internal/backend"
)

// TestMain moves to the repository root, where e2ebench runs from: it reads
// BENCHMARK.json and e2ebench/scenarios relative to it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestTimedBackendStampsEveryMethod guards backend.total.busy_s: every
// method of backend.Backend but Name maps to exactly one family, the wrapper
// embeds nothing (so the compiler rejects a missing method instead of
// promoting an untimed one), and each method stamps under its own name.
func TestTimedBackendStampsEveryMethod(t *testing.T) {
	iface := reflect.TypeOf((*backend.Backend)(nil)).Elem()
	want := map[string]bool{}
	for i := 0; i < iface.NumMethod(); i++ {
		if name := iface.Method(i).Name; name != "Name" {
			want[name] = true
		}
	}
	for name := range want {
		f, ok := methodFamily[name]
		if !ok {
			t.Errorf("backend.Backend.%s has no family in methodFamily", name)
		} else if f < 0 || f >= numFamilies {
			t.Errorf("backend.Backend.%s maps to family %d, outside the %d families", name, f, numFamilies)
		}
	}
	for name := range methodFamily {
		if !want[name] {
			t.Errorf("methodFamily names %s, which backend.Backend does not have", name)
		}
	}
	wrapper := reflect.TypeOf(timedBackend{})
	for i := 0; i < wrapper.NumField(); i++ {
		if wrapper.Field(i).Anonymous {
			t.Errorf("timedBackend embeds %s: an embedded backend would run new methods untimed", wrapper.Field(i).Name)
		}
	}

	// Each wrapper method must defer t.time("<its own name>")().
	file, err := parser.ParseFile(token.NewFileSet(), "e2ebench/timedbackend.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	stamped := map[string]string{}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || !want[fn.Name.Name] {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			d, ok := n.(*ast.DeferStmt)
			if !ok {
				return true
			}
			inner, ok := d.Call.Fun.(*ast.CallExpr)
			if !ok || len(inner.Args) != 1 {
				return true
			}
			if sel, ok := inner.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "time" {
				if lit, ok := inner.Args[0].(*ast.BasicLit); ok {
					stamped[fn.Name.Name] = strings.Trim(lit.Value, `"`)
				}
			}
			return true
		})
	}
	for name := range want {
		if stamped[name] != name {
			t.Errorf("timedBackend.%s stamps as %q, want its own name", name, stamped[name])
		}
	}
}

// lineJSON is the result line a driver reads.
type lineJSON struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// smokeRun runs one workload in smoke mode in this process and returns the
// exit code, the printed output and the decoded result line.
func smokeRun(t *testing.T, o options) (int, string, lineJSON) {
	t.Helper()
	o.smoke, o.seed, o.seconds = true, 1, 1
	var buf bytes.Buffer
	code, err := run(o, &buf)
	if err != nil {
		t.Fatalf("%s: %v\n%s", o.workload, err, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line lineJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", o.workload, err, buf.String())
	}
	return code, buf.String(), line
}

// TestSmokePrintsEveryDeclaredMetric runs all four workloads on tiny work
// lists and checks the contract with BENCHMARK.json: every end-to-end metric
// is on the result line with the declared unit and a non-zero value, every
// per-layer metric is on the traced result line, and no check fails.
func TestSmokePrintsEveryDeclaredMetric(t *testing.T) {
	bf, err := loadBenchFile()
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		declared := bf.EndToEnd
		if traced {
			declared = bf.PerLayer
		}
		for _, name := range workloadNames {
			code, out, line := smokeRun(t, options{workload: name, trace: traced})
			if code != 0 || !line.Correct || line.Failed != 0 {
				t.Errorf("%s traced=%v: exit %d, correct %v, %d failed\n%s", name, traced, code, line.Correct, line.Failed, out)
			}
			if line.Attempted < 1 {
				t.Errorf("%s traced=%v attempted no check", name, traced)
			}
			if len(line.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: result line has %d metrics, BENCHMARK.json declares %d", name, traced, len(line.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := line.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s is missing from the result line", name, traced, d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", name, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", name, d.Name)
				}
				if !strings.Contains(out, d.Name) {
					t.Errorf("%s: %s is not printed by name", name, d.Name)
				}
			}
		}
	}
}

// TestBadDigestFailsTheRun shows a failed output check reaches fail_ratio,
// the result line and the exit code.
func TestBadDigestFailsTheRun(t *testing.T) {
	code, out, line := smokeRun(t, options{workload: "train_small", injectBadDigest: true})
	if code == 0 {
		t.Errorf("exit code 0 with a corrupted reference digest\n%s", out)
	}
	if line.Correct || line.Failed == 0 {
		t.Errorf("result line says correct %v, %d failed with a corrupted reference digest", line.Correct, line.Failed)
	}
	if !strings.Contains(out, "FAILED CHECK") || strings.Contains(out, "fail_ratio                                          0 ratio") {
		t.Errorf("fail_ratio stayed 0:\n%s", out)
	}
}

// TestSecondChildRefused: workloads never overlap, so the parent refuses to
// start a child while one is running.
func TestSecondChildRefused(t *testing.T) {
	childRunning.Store(true)
	defer childRunning.Store(false)
	if err := runChild("/nonexistent", nil, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "already running") {
		t.Errorf("runChild with a child running returned %v", err)
	}
}

func TestFlagsTakeTheDriverForm(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "serve_infer", "--seed", "7", "--seconds", "20", "--trace", "1"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "serve_infer" || o.seed != 7 || o.seconds != 20 || !o.trace {
		t.Errorf("parsed %+v", o)
	}
	if _, err := parseFlags([]string{"--trace", "2"}, &bytes.Buffer{}); err == nil {
		t.Error("-trace 2 was accepted")
	}
}
