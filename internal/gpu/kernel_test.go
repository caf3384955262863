package gpu

import (
	"math"
	"testing"
)

func TestInstrMixTotalsAndShares(t *testing.T) {
	m := InstrMix{Int32: 10, Fp32: 20, Fp16: 5, Load: 8, Store: 4, Control: 2, Special: 1}
	if m.Total() != 50 {
		t.Fatalf("Total = %d, want 50", m.Total())
	}

	var acc InstrMix
	acc.Add(m)
	acc.Add(m)
	if acc.Total() != 100 || acc.Fp16 != 10 {
		t.Fatalf("Add accumulation wrong: %+v", acc)
	}

	var zero InstrMix
	if zero.Total() != 0 {
		t.Fatalf("zero mix must total zero: %+v", zero)
	}
}

func TestAccessLaneAccounting(t *testing.T) {
	strided := Access{Kind: LoadAccess, ElemBytes: 4, Count: 64, Stride: 1}
	if strided.lanes()*strided.repeats() != 64 {
		t.Fatalf("strided lanes = %d, want 64 (Repeat default 1)", strided.lanes()*strided.repeats())
	}
	strided.Repeat = 3
	if strided.lanes()*strided.repeats() != 192 {
		t.Fatalf("repeated lanes = %d, want 192", strided.lanes()*strided.repeats())
	}
	// Indexed form: len(Indices) wins over Count.
	indexed := Access{Kind: StoreAccess, ElemBytes: 4, Count: 999, Indices: []int32{3, 1, 2}}
	if indexed.lanes()*indexed.repeats() != 3 {
		t.Fatalf("indexed lanes = %d, want len(Indices) = 3", indexed.lanes()*indexed.repeats())
	}
	empty := Access{Kind: LoadAccess, ElemBytes: 4}
	if empty.lanes()*empty.repeats() != 0 {
		t.Fatalf("zero-work access lanes = %d, want 0", empty.lanes()*empty.repeats())
	}
}

func TestStallBreakdownScaleAddNormalize(t *testing.T) {
	s := StallBreakdown{MemoryDep: 2, ExecDep: 1, InstrFetch: 1, Sync: 0.5, Other: 0.5}
	w := s.Scale(2)
	if w.MemoryDep != 4 || w.Other != 1 {
		t.Fatalf("Scale wrong: %+v", w)
	}
	var acc StallBreakdown
	acc.Add(s)
	acc.Add(w)
	if acc.MemoryDep != 6 {
		t.Fatalf("Add wrong: %+v", acc)
	}
	acc.Normalize()
	sum := acc.MemoryDep + acc.ExecDep + acc.InstrFetch + acc.Sync + acc.Other
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("normalized sum = %v, want 1", sum)
	}
	// Empty breakdown: Normalize is a no-op, not a division by zero.
	var zero StallBreakdown
	zero.Normalize()
	if zero != (StallBreakdown{}) {
		t.Fatalf("empty Normalize mutated: %+v", zero)
	}
}

func TestKernelStatsRateEdgeCases(t *testing.T) {
	var ks KernelStats
	// Zero-work launch: every rate is defined.
	if ks.L1HitRate() != 0 || ks.DivergenceRate() != 0 {
		t.Fatalf("zero-work rates must be 0: %+v", ks)
	}
	ks = KernelStats{L1Hits: 3, L1Misses: 1, L2Hits: 1, L2Misses: 3, LoadWarps: 8, DivergentLoads: 2}
	if ks.L1HitRate() != 0.75 {
		t.Fatalf("L1HitRate = %v", ks.L1HitRate())
	}
	if ks.DivergenceRate() != 0.25 {
		t.Fatalf("DivergenceRate = %v", ks.DivergenceRate())
	}
}

// testKernel builds a small but non-trivial kernel descriptor.
func testKernel(name string, class OpClass, threads int) *Kernel {
	return &Kernel{
		Name:    name,
		Class:   class,
		Threads: threads,
		Mix:     InstrMix{Int32: 64, Fp32: 256, Load: 64, Store: 32, Control: 8},
		Flops:   512,
		Iops:    64,
		Accesses: []Access{
			{Kind: LoadAccess, Base: 0, ElemBytes: 4, Count: threads, Stride: 1},
			{Kind: StoreAccess, Base: 1 << 20, ElemBytes: 4, Count: threads, Stride: 1},
		},
		CodeBytes: 2048,
		DepChain:  1.5,
	}
}

func TestLaunchAttributesClassAndDuration(t *testing.T) {
	dev := New(V100())
	var seen []KernelStats
	dev.Subscribe(func(ks KernelStats) { seen = append(seen, ks) })

	classes := []OpClass{OpGEMM, OpSpMM, OpScatter, OpElementWise, OpGEMM}
	for i, c := range classes {
		st := dev.Launch(testKernel("k", c, 256+32*i))
		if st.Class != c {
			t.Fatalf("launch %d: class %v, want %v", i, st.Class, c)
		}
		if st.Seconds <= 0 || st.Launch <= 0 {
			t.Fatalf("launch %d: non-positive duration %+v", i, st)
		}
	}
	if len(seen) != len(classes) {
		t.Fatalf("listener saw %d launches, want %d", len(seen), len(classes))
	}
	if dev.KernelCount() != uint64(len(classes)) {
		t.Fatalf("KernelCount = %d", dev.KernelCount())
	}

	// Per-class kernel durations (incl. launch overhead) must sum to the
	// device's elapsed clock: the invariant Figure 2's breakdown rests on.
	perClass := map[OpClass]float64{}
	total := 0.0
	for _, ks := range seen {
		perClass[ks.Class] += ks.Seconds + ks.Launch
		total += ks.Seconds + ks.Launch
	}
	if d := math.Abs(total - dev.ElapsedSeconds()); d > 1e-12*math.Max(1, dev.ElapsedSeconds()) {
		t.Fatalf("class totals %.3e != device elapsed %.3e", total, dev.ElapsedSeconds())
	}
	if len(perClass) != 4 {
		t.Fatalf("expected 4 distinct classes, got %v", perClass)
	}
}

func TestLaunchZeroWorkKernel(t *testing.T) {
	dev := New(V100())
	st := dev.Launch(&Kernel{Name: "empty", Class: OpOther, Threads: 0})
	// A zero-work kernel still pays launch overhead but must produce finite,
	// non-negative counters — no NaN leaks into the profiler.
	if st.Launch <= 0 {
		t.Fatalf("zero-work kernel must pay launch overhead, got %v", st.Launch)
	}
	if math.IsNaN(st.Seconds) || st.Seconds < 0 {
		t.Fatalf("zero-work kernel seconds = %v", st.Seconds)
	}
	if math.IsNaN(st.IPC) || math.IsNaN(st.Stalls.MemoryDep) {
		t.Fatalf("zero-work kernel produced NaN stats: %+v", st)
	}
	if st.L1HitRate() != 0 || st.DivergenceRate() != 0 {
		t.Fatalf("zero-work kernel rates must be 0: %+v", st)
	}
	if dev.ElapsedSeconds() <= 0 {
		t.Fatal("launch overhead must advance the clock")
	}
}
