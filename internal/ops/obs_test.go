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
	obs.Disable()
	e := New(nil) // track is nil: built while disabled
	if e.track != nil {
		t.Fatal("engine built while disabled must have a nil track")
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
// the op-to-op interval and that CaptureOpClasses/Delta report it.
func TestRecordLaunchAttributesToClass(t *testing.T) {
	obs.Enable()
	defer func() {
		obs.Reset()
		obs.Disable()
	}()
	obs.Reset()
	e := New(nil)
	if e.track == nil {
		t.Fatal("engine built while enabled must carry a track")
	}
	before := CaptureOpClasses()
	gemmCount := obsOpClassNanos[gpu.OpGEMM].Count()
	spmmCount := obsOpClassNanos[gpu.OpSpMM].Count()

	e.MarkHostBoundary()
	e.recordLaunch("gemm.fwd", gpu.OpGEMM)
	e.recordLaunch("spmm.agg", gpu.OpSpMM)
	e.recordH2D("features", obs.Nanos(), 1<<20)

	if got := obsOpClassNanos[gpu.OpGEMM].Count() - gemmCount; got != 1 {
		t.Fatalf("GEMM class observations = %d, want 1", got)
	}
	if got := obsOpClassNanos[gpu.OpSpMM].Count() - spmmCount; got != 1 {
		t.Fatalf("SpMM class observations = %d, want 1", got)
	}
	if obsOpClassNanos[gpu.OpTransfer].Count() == 0 {
		t.Fatal("H2D copy not attributed to the Transfer class")
	}
	delta := CaptureOpClasses().Delta(before)
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
