package ops

import (
	"strings"
	"testing"

	"gnnmark/internal/gpu"
	"gnnmark/internal/obs"
)

// TestRecordPathsZeroAllocsWhenDisabled proves the per-op attribution hot
// path — kernel-launch and H2D recording, including the per-class histogram
// wiring — allocates nothing while observability is disabled. This is the
// contract that lets the hooks stay always-on.
func TestRecordPathsZeroAllocsWhenDisabled(t *testing.T) {
	e := New(nil) // track is nil: built into no run
	if e.track != nil {
		t.Fatal("engine built into no run must have a nil track")
	}
	if n := testing.AllocsPerRun(200, func() {
		e.recordLaunch("bench.kernel", gpu.OpGEMM)
		e.recordH2D("bench.copy", 0, 1<<20)
		e.MarkHostBoundary()
	}); n != 0 {
		t.Fatalf("disabled attribution path allocates: %.1f allocs/op", n)
	}
}

// TestRecordLaunchAttributesToClass checks the per-class histograms receive
// the op-to-op interval and that OpClasses/Delta report it.
func TestRecordLaunchAttributesToClass(t *testing.T) {
	t.Parallel()
	cfg := gpu.V100()
	cfg.Obs = obs.NewRun()
	e := New(gpu.New(cfg))
	if e.track == nil {
		t.Fatal("engine built into a run must carry a track")
	}
	before := e.OpClasses()
	observations := func(c gpu.OpClass) (n int64) {
		for _, k := range e.m.class[c].BucketCounts() {
			n += k
		}
		return n
	}
	gemmCount := observations(gpu.OpGEMM)
	spmmCount := observations(gpu.OpSpMM)

	e.MarkHostBoundary()
	e.recordLaunch("gemm.fwd", gpu.OpGEMM)
	e.recordLaunch("spmm.agg", gpu.OpSpMM)
	e.recordH2D("features", obs.Nanos(), 1<<20)

	if got := observations(gpu.OpGEMM) - gemmCount; got != 1 {
		t.Fatalf("GEMM class observations = %d, want 1", got)
	}
	if got := observations(gpu.OpSpMM) - spmmCount; got != 1 {
		t.Fatalf("SpMM class observations = %d, want 1", got)
	}
	if observations(gpu.OpTransfer) == 0 {
		t.Fatal("H2D copy not attributed to the Transfer class")
	}
	delta := e.OpClasses().Delta(before)
	if delta.Total() < 0 {
		t.Fatalf("negative attributed time: %d", delta.Total())
	}
}

// TestOpClassBreakdownRendering pins Total/Coverage/String/Summary on a
// synthetic breakdown.
func TestOpClassBreakdownRendering(t *testing.T) {
	var b OpClassBreakdown
	b.Nanos[gpu.OpGEMM] = 600
	b.Nanos[gpu.OpSpMM] = 300
	b.Nanos[gpu.OpElementWise] = 100
	if b.Total() != 1000 {
		t.Fatalf("Total = %d, want 1000", b.Total())
	}
	if c := b.Coverage(2000); c != 0.5 {
		t.Fatalf("Coverage = %v, want 0.5", c)
	}
	if c := b.Coverage(0); c != 0 {
		t.Fatalf("Coverage of zero host time = %v, want 0", c)
	}
	s := b.String()
	if !strings.HasPrefix(s, "GEMM 60.0%") {
		t.Fatalf("String must lead with the dominant class: %q", s)
	}
	for _, frag := range []string{"SpMM 30.0%", "ElementWise 10.0%"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String missing %q: %q", frag, s)
		}
	}
	if strings.Contains(s, "Conv") {
		t.Fatalf("String must omit zero classes: %q", s)
	}
	sum := b.Summary(2000)
	if !strings.Contains(sum, "50.0% of host time attributed") {
		t.Fatalf("Summary missing coverage clause: %q", sum)
	}
	var empty OpClassBreakdown
	if empty.String() != "" {
		t.Fatalf("empty breakdown String = %q, want empty", empty.String())
	}
	if !strings.Contains(empty.Summary(100), "no op-class attribution") {
		t.Fatalf("empty Summary = %q", empty.Summary(100))
	}
}

// TestCaptureDeltaArithmetic checks Delta is element-wise subtraction.
func TestCaptureDeltaArithmetic(t *testing.T) {
	var a, b OpClassBreakdown
	a.Nanos[gpu.OpGEMM] = 100
	b.Nanos[gpu.OpGEMM] = 350
	b.Nanos[gpu.OpScatter] = 40
	d := b.Delta(a)
	if d.Nanos[gpu.OpGEMM] != 250 || d.Nanos[gpu.OpScatter] != 40 {
		t.Fatalf("Delta wrong: %+v", d.Nanos)
	}
}
