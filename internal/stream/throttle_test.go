package stream

import (
	"math"
	"testing"

	"gnnmark/internal/fault"
	"gnnmark/internal/gpu"
)

// heavyLaunch queues a kernel whose execution time dominates launch
// overhead, so a throttle visibly scales the recorded slice, and returns the
// stats the device delivers for it.
func heavyLaunch(s *Stream) gpu.KernelStats {
	var st gpu.KernelStats
	s.tl.dev.Subscribe(func(ks gpu.KernelStats) { st = ks })
	n := 1 << 14
	s.Launch(&gpu.Kernel{
		Name: "k", Class: gpu.OpGEMM, Threads: n,
		Mix:      gpu.InstrMix{Fp32: uint64(n) * 4096, Load: uint64(n) * 8},
		Flops:    uint64(n) * 8192,
		Accesses: []gpu.Access{{Kind: gpu.LoadAccess, Base: 0, ElemBytes: 4, Count: n, Stride: 1}},
	})
	s.tl.dev.Sync()
	return st
}

// throttled builds a timeline over a device with a thermal throttle and an
// NVLink degrade active from t = 0.
func throttled(thermal, link float64) *Timeline {
	dev := testDev()
	var events []fault.Event
	if thermal > 1 {
		events = append(events, fault.Event{Type: fault.ThermalThrottle, Factor: thermal})
	}
	if link > 1 {
		events = append(events, fault.Event{Type: fault.NVLinkDegrade, Factor: link})
	}
	dev.AttachHealth(fault.NewMonitor(events, true))
	return New(dev)
}

// TestThrottleStretchesLaneSlices: a thermal throttle stretches both kernel
// and copy slices on the stream lanes by its factor; the recorded payload
// bytes and kernel counters stay bitwise identical — pure timing.
func TestThrottleStretchesLaneSlices(t *testing.T) {
	const factor = 1.5
	base := New(testDev())
	hot := throttled(factor, 1)

	for _, tl := range []*Timeline{base, hot} {
		compute := tl.NewStream("compute")
		copyq := tl.NewStream("copy")
		for i := 0; i < 3; i++ {
			heavyLaunch(compute)
			copyq.CopyH2D("x", 4<<20, 2<<20, 0.5)
		}
	}

	bl, hl := base.Lanes(), hot.Lanes()
	for li := range bl {
		if len(bl[li].Slices) != len(hl[li].Slices) {
			t.Fatalf("lane %s: slice counts differ", bl[li].Name)
		}
		for si := range bl[li].Slices {
			b, h := bl[li].Slices[si], hl[li].Slices[si]
			if b.Bytes != h.Bytes || b.Cat != h.Cat || b.Name != h.Name {
				t.Fatalf("lane %s slice %d: identity perturbed: %+v vs %+v", bl[li].Name, si, b, h)
			}
			if r := h.Dur / b.Dur; math.Abs(r-factor) > 1e-9 {
				t.Fatalf("lane %s slice %d (%s): duration ratio %v, want %v",
					bl[li].Name, si, b.Cat, r, factor)
			}
		}
	}
	if hot.Now() <= base.Now() {
		t.Fatalf("throttled makespan %v not strictly greater than %v", hot.Now(), base.Now())
	}
}

// TestLinkDegradeStretchesCopiesOnly: NVLink degradation stretches copy
// slices but leaves kernel slices untouched.
func TestLinkDegradeStretchesCopiesOnly(t *testing.T) {
	const link = 2.0
	base := New(testDev())
	deg := throttled(1, link)

	for _, tl := range []*Timeline{base, deg} {
		s := tl.NewStream("mixed")
		heavyLaunch(s)
		s.CopyH2D("x", 4<<20, 4<<20, 0)
	}

	b, d := base.Lanes()[0].Slices, deg.Lanes()[0].Slices
	if b[0].Dur != d[0].Dur {
		t.Fatalf("kernel slice stretched by a link event: %v vs %v", b[0].Dur, d[0].Dur)
	}
	if r := d[1].Dur / b[1].Dur; math.Abs(r-link) > 1e-9 {
		t.Fatalf("copy slice ratio %v, want %v", r, link)
	}
}

// TestThrottleKeepsDigestInputsIdentical: the kernel stats a throttled
// device reports (the inputs every profile digest hashes) carry identical
// counters — only Seconds moves.
func TestThrottleKeepsDigestInputsIdentical(t *testing.T) {
	base := New(testDev())
	hot := throttled(1.7, 1)
	a := heavyLaunch(base.NewStream("c"))
	b := heavyLaunch(hot.NewStream("c"))
	if a.L1Hits != b.L1Hits || a.L2Misses != b.L2Misses || a.DRAMBytes != b.DRAMBytes ||
		a.Mix != b.Mix || a.IPC != b.IPC {
		t.Fatalf("counters diverged under throttle:\n%+v\nvs\n%+v", a, b)
	}
	if b.Seconds <= a.Seconds {
		t.Fatal("throttled kernel not slower")
	}
}
