package stream

import (
	"math"
	"testing"

	"gnnmark/internal/gpu"
)

func testDev() *gpu.Device {
	cfg := gpu.V100()
	cfg.MaxSampledWarps = 256
	return gpu.New(cfg)
}

// launch queues an n-thread kernel on s and returns its duration on the
// stream, read once the device has delivered it.
func launch(s *Stream, n int) float64 {
	dev := s.tl.dev
	s.Launch(&gpu.Kernel{
		Name: "k", Class: gpu.OpGEMM, Threads: n,
		Mix:      gpu.InstrMix{Fp32: uint64(n) * 8, Load: uint64(n)},
		Flops:    uint64(n) * 16,
		Accesses: []gpu.Access{{Kind: gpu.LoadAccess, Base: dev.AllocBlock(4*n, "scratch").Addr(), ElemBytes: 4, Count: n, Stride: 1}},
	})
	dev.Sync()
	return s.slices[len(s.slices)-1].Dur
}

func close1(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b)) }

// An unordered copy overlaps with compute: the makespan is the max of the
// two streams, not the sum — while the device's serialized baseline clock
// still accumulates both.
func TestCopyOverlapsCompute(t *testing.T) {
	dev := testDev()
	tl := New(dev)
	compute := tl.NewStream("compute")
	copyq := tl.NewStream("copy")

	kdur := launch(compute, 1<<14)
	ts := copyq.CopyH2D("x", 1<<20, 1<<20, 0)

	if !close1(tl.Now(), math.Max(kdur, ts.Seconds)) {
		t.Fatalf("makespan %g, want max(%g, %g)", tl.Now(), kdur, ts.Seconds)
	}
	if !close1(dev.ElapsedSeconds(), kdur+ts.Seconds) {
		t.Fatalf("serialized baseline %g, want %g", dev.ElapsedSeconds(), kdur+ts.Seconds)
	}
	if !close1(compute.Busy(), kdur) || !close1(copyq.Busy(), ts.Seconds) {
		t.Fatalf("busy accounting wrong: %g / %g", compute.Busy(), copyq.Busy())
	}
}

// Event/Wait serializes across streams: compute fenced on the copy's
// completion starts after it.
func TestEventOrdersStreams(t *testing.T) {
	tl := New(testDev())
	compute := tl.NewStream("compute")
	copyq := tl.NewStream("copy")

	copyq.CopyH2D("x", 8<<20, 8<<20, 0)
	ev := copyq.Record()
	compute.Wait(ev)
	launch(compute, 1<<12)

	if len(compute.slices) != 1 {
		t.Fatalf("slices = %d", len(compute.slices))
	}
	if got := compute.slices[0].Start; !close1(got, ev.at) {
		t.Fatalf("fenced kernel started at %g, want %g", got, ev.at)
	}
}

// Sync advances every cursor to the makespan, exposing unhidden time.
func TestSyncAdvancesAllStreams(t *testing.T) {
	tl := New(testDev())
	a := tl.NewStream("a")
	b := tl.NewStream("b")
	a.CopyH2D("x", 32<<20, 32<<20, 0)
	launch(b, 1<<10)

	now := tl.Sync()
	if !close1(a.Cursor(), now) || !close1(b.Cursor(), now) {
		t.Fatalf("cursors %g/%g after sync, want %g", a.Cursor(), b.Cursor(), now)
	}
}

// Compressed copies take wire-size time on the stream but keep raw bytes
// on the device (the sparsity characterization's view).
func TestWireBytesShrinkStreamTime(t *testing.T) {
	dev := testDev()
	tl := New(dev)
	copyq := tl.NewStream("copy")

	raw, wire := uint64(16<<20), uint64(2<<20)
	ts := copyq.CopyH2D("feat", raw, wire, 0.9)
	if ts.Bytes != raw {
		t.Fatalf("device saw %d bytes, want raw %d", ts.Bytes, raw)
	}
	if !close1(ts.Seconds, dev.CopyCost(raw)) {
		t.Fatalf("baseline transfer time %g, want raw cost %g", ts.Seconds, dev.CopyCost(raw))
	}
	if !close1(copyq.Cursor(), dev.CopyCost(wire)) {
		t.Fatalf("stream cursor %g, want wire cost %g", copyq.Cursor(), dev.CopyCost(wire))
	}
	if copyq.slices[0].Bytes != wire {
		t.Fatalf("slice bytes %d, want wire %d", copyq.slices[0].Bytes, wire)
	}
}

// Lanes snapshot busy/idle against the makespan and carry the slices.
func TestLanesAccounting(t *testing.T) {
	tl := New(testDev())
	compute := tl.NewStream("compute")
	copyq := tl.NewStream("copy engine")
	launch(compute, 1<<14)
	copyq.CopyH2D("x", 1<<16, 1<<16, 0)

	lanes := tl.Lanes()
	if len(lanes) != 2 {
		t.Fatalf("lanes = %d", len(lanes))
	}
	now := tl.Now()
	for _, ln := range lanes {
		if !close1(ln.Busy+ln.Idle, now) {
			t.Fatalf("lane %s: busy %g + idle %g != makespan %g", ln.Name, ln.Busy, ln.Idle, now)
		}
		if len(ln.Slices) != 1 || ln.Dropped != 0 {
			t.Fatalf("lane %s: %d slices, %d dropped", ln.Name, len(ln.Slices), ln.Dropped)
		}
	}
}

// The slice cap drops recording, not accounting.
func TestSliceLimit(t *testing.T) {
	tl := New(testDev())
	tl.sliceLimit = 2
	s := tl.NewStream("copy")
	for i := 0; i < 5; i++ {
		s.CopyH2D("x", 1<<10, 1<<10, 0)
	}
	if len(s.slices) != 2 || s.dropped != 3 {
		t.Fatalf("slices = %d dropped = %d", len(s.slices), s.dropped)
	}
	if !close1(s.Busy(), 5*tl.dev.CopyCost(1<<10)) {
		t.Fatalf("busy lost dropped work: %g", s.Busy())
	}
}
