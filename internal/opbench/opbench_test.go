package opbench

import (
	"bytes"
	"testing"

	"gnnmark/internal/backend"
)

// TestSweepCoverage pins the acceptance floor: at least 5 op classes, at
// least 3 shape classes per op class, unique keys, and a smoke subset that
// still covers every op class.
func TestSweepCoverage(t *testing.T) {
	perOp := map[string]int{}
	keys := map[string]bool{}
	for _, c := range Cases() {
		perOp[c.Op]++
		if keys[c.Key()] {
			t.Fatalf("duplicate case key %q", c.Key())
		}
		keys[c.Key()] = true
	}
	if len(perOp) < 5 {
		t.Fatalf("sweep covers %d op classes, need >= 5: %v", len(perOp), perOp)
	}
	for op, n := range perOp {
		if n < 3 {
			t.Fatalf("op class %s has %d shape classes, need >= 3", op, n)
		}
	}
	smokeOps := map[string]bool{}
	for _, c := range SmokeCases() {
		if !c.Smoke {
			t.Fatal("SmokeCases returned a non-smoke case")
		}
		smokeOps[c.Op] = true
	}
	if len(smokeOps) != len(perOp) {
		t.Fatalf("smoke sweep covers %d op classes, full sweep has %d — the CI gate would miss classes",
			len(smokeOps), len(perOp))
	}
}

// tinyConfig returns the fastest configuration that still exercises both
// backends end to end.
func tinyConfig() Config {
	return Config{Smoke: true, Reps: 1, Warmup: 1, TargetWork: 1, Seed: 1}
}

// stripTiming zeroes every timing-dependent field so reports can be
// compared byte for byte.
func stripTiming(r *Report) {
	for i := range r.Results {
		r.Results[i].MinNs = 0
		r.Results[i].MedianNs = 0
		r.Results[i].MADNs = 0
		r.Results[i].MaxNs = 0
	}
}

// TestReportByteStableModuloTiming reruns the same sweep twice and checks
// the artifacts agree byte for byte once timing fields are zeroed: same
// shapes, same order, same seeds, same iteration plan.
func TestReportByteStableModuloTiming(t *testing.T) {
	r1, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	stripTiming(r1)
	stripTiming(r2)
	var b1, b2 bytes.Buffer
	if err := r1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("reruns differ beyond timing fields:\n--- run 1\n%s\n--- run 2\n%s", b1.String(), b2.String())
	}
}

// TestRunProducesBothBackends checks every case is measured once per
// backend, in deterministic order, with populated statistics.
func TestRunProducesBothBackends(t *testing.T) {
	rep, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := len(SmokeCases()) * 2
	if len(rep.Results) != want {
		t.Fatalf("got %d results, want %d (cases x backends)", len(rep.Results), want)
	}
	if rep.Schema != Schema {
		t.Fatalf("schema %q, want %q", rep.Schema, Schema)
	}
	for i, r := range rep.Results {
		wantBe := []string{"serial", "parallel"}[i%2]
		if r.Backend != wantBe {
			t.Fatalf("result %d backend %q, want %q (order must be deterministic)", i, r.Backend, wantBe)
		}
		if r.MedianNs <= 0 || r.MinNs <= 0 || r.MaxNs < r.MedianNs || r.MedianNs < r.MinNs {
			t.Fatalf("result %s/%s has inconsistent stats: %+v", r.Key(), r.Backend, r)
		}
		if r.Iters < 1 || r.Reps != 1 {
			t.Fatalf("result %s/%s has bad plan: %+v", r.Key(), r.Backend, r)
		}
	}
	if rep.Env.GoVersion == "" || rep.Env.NumCPU <= 0 || rep.Env.DenseKernel != backend.DenseKernel() {
		t.Fatalf("env fingerprint incomplete: %+v", rep.Env)
	}
}

// TestRoundTrip writes a report to disk and reads it back.
func TestRoundTrip(t *testing.T) {
	rep, err := Run(Config{Smoke: true, Reps: 1, Warmup: 1, TargetWork: 1, Backends: []string{"serial"}})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/BENCH_opbench.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(rep.Results) || got.Schema != Schema {
		t.Fatalf("round trip mismatch: %d results schema %q", len(got.Results), got.Schema)
	}
}

// TestReadFileRejectsSchemaDrift pins the hard failure on format drift.
func TestReadFileRejectsSchemaDrift(t *testing.T) {
	path := t.TempDir() + "/old.json"
	rep := &Report{Schema: "gnnmark-opbench/v0"}
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("ReadFile accepted a mismatched schema")
	}
}

// TestRobustStats checks the stats on a known sample.
func TestRobustStats(t *testing.T) {
	min, med, mad, max := robustStats([]int64{9, 11, 10, 10, 50})
	if min != 9 || med != 10 || max != 50 {
		t.Fatalf("min/med/max = %d/%d/%d", min, med, max)
	}
	// deviations |9-10|,|11-10|,|10-10|,|10-10|,|50-10| -> 0,0,1,1,40; median 1.
	if mad != 1 {
		t.Fatalf("mad = %d, want 1 (must shrug off the outlier)", mad)
	}
}

// TestEveryCaseRunsOnEveryBackend executes each case once per backend —
// the closures must not panic on either numerics path (the parallel
// backend takes its serial fallback on the small shapes).
func TestEveryCaseRunsOnEveryBackend(t *testing.T) {
	for _, name := range backend.Names() {
		be, err := backend.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range Cases() {
			run := c.Runner(7)
			run(be)
			run(be) // accumulating ops must clear between iterations
		}
	}
}
