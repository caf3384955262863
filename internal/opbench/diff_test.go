package opbench

import (
	"strings"
	"testing"
)

// cannedResult builds one measurement with the given medians/MADs.
func cannedResult(op, shape, be string, median, mad int64, smoke bool) Result {
	return Result{
		Op: op, Shape: shape, Backend: be, Smoke: smoke,
		Bytes: 1 << 20, Flops: 1 << 20, Iters: 4, Reps: 7,
		MinNs: median - mad, MedianNs: median, MADNs: mad, MaxNs: median + 3*mad,
	}
}

// cannedReport wraps results in a schema-tagged report.
func cannedReport(smoke bool, results ...Result) *Report {
	return &Report{Schema: Schema, Env: CollectEnv(), Smoke: smoke, Reps: 7, Warmup: 2, Seed: 1, Results: results}
}

// TestDiffFlagsSyntheticSlowdown pins the acceptance gate: a 2x slowdown
// on one shape is a regression; everything else stays unchanged.
func TestDiffFlagsSyntheticSlowdown(t *testing.T) {
	old := cannedReport(false,
		cannedResult(OpGEMM, "arga.enc1:m2400.n32.k358", "serial", 1_000_000, 20_000, true),
		cannedResult(OpSpMM, "cora:r2400.nnz9600.f32", "serial", 400_000, 9_000, true),
	)
	cur := cannedReport(false,
		cannedResult(OpGEMM, "arga.enc1:m2400.n32.k358", "serial", 2_000_000, 25_000, true),
		cannedResult(OpSpMM, "cora:r2400.nnz9600.f32", "serial", 401_000, 10_000, true),
	)
	d, err := Compare(old, cur, DiffConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", d.Regressions, d.Markdown())
	}
	if d.Rows[0].Verdict != VerdictRegression {
		t.Fatalf("GEMM verdict = %q, want regression", d.Rows[0].Verdict)
	}
	if d.Rows[1].Verdict != VerdictUnchanged {
		t.Fatalf("SpMM verdict = %q, want unchanged (delta within noise)", d.Rows[1].Verdict)
	}
	if d.CoverageDrift() {
		t.Fatal("no coverage drift expected")
	}
	md := d.Markdown()
	for _, frag := range []string{"REGRESSION", "+100.0%", "arga.enc1", "1 regression(s)"} {
		if !strings.Contains(md, frag) {
			t.Fatalf("markdown missing %q:\n%s", frag, md)
		}
	}
}

// TestDiffQuietUnderNoise re-measures with jitter inside the MAD noise bar
// — and with jitter beyond the bar but inside the regression budget — and
// expects silence both times.
func TestDiffQuietUnderNoise(t *testing.T) {
	old := cannedReport(false,
		cannedResult(OpGEMM, "g", "serial", 1_000_000, 30_000, true),
		cannedResult(OpElementWise, "e", "parallel", 50_000, 2_000, true),
	)
	// +6% on GEMM (inside 4*(30k+35k) = 260k noise bar), -4% on EW.
	cur := cannedReport(false,
		cannedResult(OpGEMM, "g", "serial", 1_060_000, 35_000, true),
		cannedResult(OpElementWise, "e", "parallel", 48_000, 1_800, true),
	)
	d, err := Compare(old, cur, DiffConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Regressions != 0 || d.Improvements != 0 {
		t.Fatalf("noise flagged: %d regressions, %d improvements\n%s",
			d.Regressions, d.Improvements, d.Markdown())
	}
	// A significant delta (beyond MADs) that stays inside the budget is
	// also quiet: 8% up with tight MADs, 10% budget.
	old2 := cannedReport(false, cannedResult(OpSpMM, "s", "serial", 1_000_000, 1_000, true))
	cur2 := cannedReport(false, cannedResult(OpSpMM, "s", "serial", 1_080_000, 1_000, true))
	d2, err := Compare(old2, cur2, DiffConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Regressions != 0 {
		t.Fatalf("within-budget delta flagged as regression\n%s", d2.Markdown())
	}
	if !d2.Rows[0].Significant {
		t.Fatal("80x-MAD delta should be statistically significant")
	}
}

// TestDiffImprovement checks speedups are reported on the other side of
// the budget.
func TestDiffImprovement(t *testing.T) {
	old := cannedReport(false, cannedResult(OpGEMM, "g", "parallel", 2_000_000, 10_000, true))
	cur := cannedReport(false, cannedResult(OpGEMM, "g", "parallel", 1_000_000, 8_000, true))
	d, err := Compare(old, cur, DiffConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Improvements != 1 || d.Rows[0].Verdict != VerdictImprovement {
		t.Fatalf("improvement not detected\n%s", d.Markdown())
	}
}

// TestDiffCoverageDrift: a full new report missing a baseline shape is
// structural drift; a smoke new report is only held to the smoke subset.
func TestDiffCoverageDrift(t *testing.T) {
	old := cannedReport(false,
		cannedResult(OpGEMM, "g", "serial", 1_000_000, 10_000, true),
		cannedResult(OpSpMM, "s", "serial", 500_000, 5_000, false),
	)
	// Full comparison: both shapes required.
	cur := cannedReport(false, cannedResult(OpGEMM, "g", "serial", 1_010_000, 10_000, true))
	d, err := Compare(old, cur, DiffConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.CoverageDrift() || len(d.Missing) != 1 || !strings.Contains(d.Missing[0], "SpMM/s") {
		t.Fatalf("full-scope drift not detected: %v", d.Missing)
	}

	// Smoke comparison: only the smoke-marked baseline rows are required.
	smoke := cannedReport(true, cannedResult(OpGEMM, "g", "serial", 1_010_000, 10_000, true))
	d2, err := Compare(old, smoke, DiffConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.CoverageDrift() {
		t.Fatalf("smoke scope should not require non-smoke shapes: %v", d2.Missing)
	}
	// But a smoke report missing a smoke-marked shape is drift.
	smokeMissing := cannedReport(true, cannedResult(OpSpMM, "s", "serial", 500_000, 5_000, false))
	d3, err := Compare(old, smokeMissing, DiffConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !d3.CoverageDrift() {
		t.Fatal("smoke report missing a smoke shape must be drift")
	}
}

// TestDiffSchemaMismatch pins the hard error across format generations.
func TestDiffSchemaMismatch(t *testing.T) {
	old := cannedReport(false)
	old.Schema = "gnnmark-opbench/v0"
	if _, err := Compare(old, cannedReport(false), DiffConfig{}); err == nil {
		t.Fatal("Compare accepted mismatched schemas")
	}
}

// TestDiffAddedShapes: new shapes are informational, never failures.
func TestDiffAddedShapes(t *testing.T) {
	old := cannedReport(false, cannedResult(OpGEMM, "g", "serial", 1_000_000, 10_000, true))
	cur := cannedReport(false,
		cannedResult(OpGEMM, "g", "serial", 1_000_000, 10_000, true),
		cannedResult(OpGather, "new.shape", "serial", 100_000, 1_000, false),
	)
	d, err := Compare(old, cur, DiffConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d.CoverageDrift() || len(d.Added) != 1 {
		t.Fatalf("added shape handling wrong: missing=%v added=%v", d.Missing, d.Added)
	}
}

// TestDiffNamesDenseKernels: a report measured on the Go-loop GEMM body is
// several times slower on every GEMM and Conv row than one measured on the
// vector body at the same revision, so the diff prints both bodies and says
// so when they differ (a report from before the field reads "unrecorded").
func TestDiffNamesDenseKernels(t *testing.T) {
	old := cannedReport(false, cannedResult(OpGEMM, "square512:m512.n512.k512", "serial", 36_000_000, 500_000, false))
	cur := cannedReport(false, cannedResult(OpGEMM, "square512:m512.n512.k512", "serial", 7_000_000, 400_000, false))
	old.Env.DenseKernel, cur.Env.DenseKernel = "", "avx2"
	d, err := Compare(old, cur, DiffConfig{})
	if err != nil {
		t.Fatal(err)
	}
	md := d.Markdown()
	for _, frag := range []string{"dense kernel unrecorded", "dense kernel avx2", "dense kernels differ"} {
		if !strings.Contains(md, frag) {
			t.Fatalf("markdown missing %q:\n%s", frag, md)
		}
	}
	old.Env.DenseKernel = "avx2"
	if md := d.Markdown(); strings.Contains(md, "dense kernels differ") {
		t.Fatalf("equal kernels reported as different:\n%s", md)
	}
}
