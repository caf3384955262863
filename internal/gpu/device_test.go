package gpu

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	cfg := V100()
	cfg.MaxSampledWarps = 1 << 12
	return cfg
}

func TestV100ConfigSane(t *testing.T) {
	cfg := V100()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("V100 config invalid: %v", err)
	}
	peak := cfg.PeakGFLOPS()
	// The paper quotes 14 TFLOPS fp32 for the V100.
	if peak < 13000 || peak > 15000 {
		t.Fatalf("peak = %.0f GFLOPS, want ~14000", peak)
	}
}

func TestConfigValidateRejectsBadValues(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero SMs", func(c *Config) { c.NumSMs = 0 }},
		{"zero clock", func(c *Config) { c.ClockGHz = 0 }},
		{"zero L1", func(c *Config) { c.L1SizeKB = 0 }},
		{"zero line", func(c *Config) { c.L2LineBytes = 0 }},
		{"96-byte L1 line", func(c *Config) { c.L1LineBytes = 96 }},
		{"48-byte L2 line", func(c *Config) { c.L2LineBytes = 48 }},
		{"zero ways", func(c *Config) { c.L1Ways = 0 }},
		{"zero bandwidth", func(c *Config) { c.DRAMBandwidthGBps = 0 }},
		{"zero issue", func(c *Config) { c.IssueLanesPerSM = 0 }},
		{"zero sampling", func(c *Config) { c.MaxSampledWarps = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := V100()
			tt.mutate(&cfg)
			var cfgErr errConfig
			if err := cfg.Validate(); !errors.As(err, &cfgErr) {
				t.Fatalf("Validate() = %v, want an errConfig", err)
			}
		})
	}
}

func TestDeviceAllocDistinctAligned(t *testing.T) {
	d := New(testConfig())
	a := d.AllocBlock(100, "scratch").Addr()
	b := d.AllocBlock(100, "scratch").Addr()
	if a == b {
		t.Fatal("allocations must not alias")
	}
	if b-a < 100 {
		t.Fatalf("second allocation overlaps first: %d %d", a, b)
	}
	if a%256 != 0 || b%256 != 0 {
		t.Fatal("allocations must be 256-byte aligned")
	}
}

func TestLaunchAdvancesClockAndNotifies(t *testing.T) {
	d := New(testConfig())
	var got []KernelStats
	d.Subscribe(func(ks KernelStats) { got = append(got, ks) })

	k := &Kernel{
		Name:    "ew_add",
		Class:   OpElementWise,
		Threads: 1 << 16,
		Mix:     InstrMix{Fp32: 1 << 16, Int32: 1 << 15, Load: 1 << 17, Store: 1 << 16},
		Flops:   1 << 16,
		Accesses: []Access{
			{Kind: LoadAccess, Base: d.AllocBlock(1<<20, "scratch").Addr(), ElemBytes: 4, Count: 1 << 16, Stride: 1},
			{Kind: StoreAccess, Base: d.AllocBlock(1<<20, "scratch").Addr(), ElemBytes: 4, Count: 1 << 16, Stride: 1},
		},
		CodeBytes: 2048,
		DepChain:  1.5,
	}
	st := d.Launch(k)
	if st.Seconds <= 0 {
		t.Fatal("kernel latency must be positive")
	}
	if d.ElapsedSeconds() < st.Seconds {
		t.Fatal("device clock did not advance by at least the kernel time")
	}
	if len(got) != 1 {
		t.Fatalf("listener called %d times, want 1", len(got))
	}
	if got[0].Class != OpElementWise {
		t.Fatalf("class = %v", got[0].Class)
	}
	if d.KernelCount() != 1 {
		t.Fatalf("kernel count = %d", d.KernelCount())
	}
}

func TestStreamingLoadMissesL1(t *testing.T) {
	// A coalesced streaming read much larger than L1 must show a very low
	// L1 hit rate (each 128B line touched exactly once).
	d := New(testConfig())
	n := 1 << 20 // 4 MB of fp32
	k := &Kernel{
		Name: "stream", Class: OpElementWise, Threads: n,
		Mix:      InstrMix{Load: uint64(n)},
		Accesses: []Access{{Kind: LoadAccess, Base: d.AllocBlock(4*n, "scratch").Addr(), ElemBytes: 4, Count: n, Stride: 1}},
	}
	st := d.Launch(k)
	if hr := st.L1HitRate(); hr > 0.05 {
		t.Fatalf("streaming L1 hit rate = %.3f, want ~0", hr)
	}
	if st.DivergenceRate() != 0 {
		t.Fatalf("coalesced stream reported divergence %.3f", st.DivergenceRate())
	}
}

func TestSmallWorkingSetHitsL1(t *testing.T) {
	// Repeated reads of a small buffer must be L1-resident.
	d := New(testConfig())
	n := 1 << 10 // 4 KB
	k := &Kernel{
		Name: "reuse", Class: OpElementWise, Threads: n,
		Mix: InstrMix{Load: uint64(16 * n)},
		Accesses: []Access{{
			Kind: LoadAccess, Base: d.AllocBlock(4*n, "scratch").Addr(), ElemBytes: 4,
			Count: n, Stride: 1, Repeat: 16,
		}},
	}
	st := d.Launch(k)
	if hr := st.L1HitRate(); hr < 0.9 {
		t.Fatalf("resident working set L1 hit rate = %.3f, want >0.9", hr)
	}
}

func TestRandomGatherDiverges(t *testing.T) {
	// A gather with scattered indices must be flagged divergent and miss L1.
	d := New(testConfig())
	n := 1 << 14
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32((i * 2654435761) % (1 << 22)) // pseudo-random spread
	}
	k := &Kernel{
		Name: "gather", Class: OpGather, Threads: n,
		Mix:      InstrMix{Load: uint64(n), Int32: uint64(2 * n)},
		Accesses: []Access{{Kind: LoadAccess, Base: d.AllocBlock(4<<22, "scratch").Addr(), ElemBytes: 4, Indices: idx}},
	}
	st := d.Launch(k)
	if dr := st.DivergenceRate(); dr < 0.9 {
		t.Fatalf("random gather divergence = %.3f, want ~1", dr)
	}
	if hr := st.L1HitRate(); hr > 0.2 {
		t.Fatalf("random gather L1 hit rate = %.3f, want low", hr)
	}
}

func TestWarpCoalescingCountsLines(t *testing.T) {
	// Stride-32 fp32 accesses: every lane in a warp touches its own line,
	// so every warp is divergent; stride-1 touches one line per warp.
	d := New(testConfig())
	mk := func(stride int) KernelStats {
		n := 1 << 12
		return d.Launch(&Kernel{
			Name: "strided", Class: OpGather, Threads: n,
			Mix:      InstrMix{Load: uint64(n)},
			Accesses: []Access{{Kind: LoadAccess, Base: d.AllocBlock(64<<20, "scratch").Addr(), ElemBytes: 4, Count: n, Stride: stride}},
		})
	}
	coal := mk(1)
	div := mk(64)
	if coal.DivergenceRate() != 0 {
		t.Fatalf("stride-1 divergence = %.3f", coal.DivergenceRate())
	}
	if div.DivergenceRate() < 0.99 {
		t.Fatalf("stride-64 divergence = %.3f, want ~1", div.DivergenceRate())
	}
	// The divergent version issues ~32x the transactions and must be slower.
	if div.Seconds <= coal.Seconds {
		t.Fatal("divergent kernel should be slower than coalesced")
	}
}

func TestLargerKernelTakesLonger(t *testing.T) {
	d := New(testConfig())
	mk := func(n int) float64 {
		return d.Launch(&Kernel{
			Name: "fp", Class: OpGEMM, Threads: n,
			Mix:   InstrMix{Fp32: uint64(n) * 64},
			Flops: uint64(n) * 128,
		}).Seconds
	}
	small := mk(1 << 12)
	large := mk(1 << 18)
	if large <= small {
		t.Fatalf("64x work not slower: %g vs %g", large, small)
	}
}

func TestStallBreakdownNormalized(t *testing.T) {
	d := New(testConfig())
	st := d.Launch(&Kernel{
		Name: "k", Class: OpReduction, Threads: 1 << 14,
		Mix:      InstrMix{Int32: 1 << 18, Load: 1 << 16, Fp32: 1 << 14},
		Accesses: []Access{{Kind: LoadAccess, Base: d.AllocBlock(1<<22, "scratch").Addr(), ElemBytes: 4, Count: 1 << 16, Stride: 1}},
		DepChain: 3, Barriers: 4,
	})
	sum := st.Stalls.MemoryDep + st.Stalls.ExecDep + st.Stalls.InstrFetch +
		st.Stalls.Sync + st.Stalls.Other
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("stall fractions sum to %g, want 1", sum)
	}
	for _, v := range []float64{st.Stalls.MemoryDep, st.Stalls.ExecDep,
		st.Stalls.InstrFetch, st.Stalls.Sync, st.Stalls.Other} {
		if v < 0 {
			t.Fatalf("negative stall fraction: %+v", st.Stalls)
		}
	}
}

func TestFetchStallsGrowWithCodeSize(t *testing.T) {
	d := New(testConfig())
	mk := func(code int) StallBreakdown {
		return d.Launch(&Kernel{
			Name: "k", Class: OpGEMM, Threads: 1 << 16,
			Mix:       InstrMix{Fp32: 1 << 22, Int32: 1 << 21},
			CodeBytes: code,
		}).Stalls
	}
	small := mk(4 << 10)
	big := mk(256 << 10)
	if big.InstrFetch <= small.InstrFetch {
		t.Fatalf("fetch stalls did not grow with code size: %.3f vs %.3f",
			big.InstrFetch, small.InstrFetch)
	}
}

func TestDepChainSlowsLowOccupancyKernels(t *testing.T) {
	d := New(testConfig())
	mk := func(dep float64) float64 {
		return d.Launch(&Kernel{
			Name: "k", Class: OpElementWise, Threads: 1 << 10,
			Mix:      InstrMix{Fp32: 1 << 20},
			DepChain: dep,
		}).Seconds
	}
	if mk(6) <= mk(1) {
		t.Fatal("dependency chains must slow low-occupancy kernels")
	}
}

func TestCopyH2DAdvancesClockAndNotifies(t *testing.T) {
	d := New(testConfig())
	var got []TransferStats
	d.SubscribeTransfers(func(ts TransferStats) { got = append(got, ts) })
	before := d.ElapsedSeconds()
	ts := d.CopyH2D("features", 1<<20, 0.4)
	if ts.Seconds <= 0 || d.ElapsedSeconds() <= before {
		t.Fatal("transfer must take time")
	}
	if len(got) != 1 || got[0].ZeroFraction != 0.4 || !got[0].HostToDevice {
		t.Fatalf("transfer listener got %+v", got)
	}
}

func TestResetClock(t *testing.T) {
	d := New(testConfig())
	d.Launch(&Kernel{Name: "k", Class: OpOther, Threads: 32, Mix: InstrMix{Int32: 1024}})
	d.CopyH2D("x", 1024, 0)
	d.ResetClock()
	if d.ElapsedSeconds() != 0 || d.KernelCount() != 0 {
		t.Fatal("ResetClock must zero time and counters")
	}
}

func TestSamplingPreservesScale(t *testing.T) {
	// A stream far above the sampling cap must still report approximately
	// the same *number* of transactions (rescaled), so bandwidth-derived
	// timing stays comparable.
	cfg := testConfig()
	cfg.MaxSampledWarps = 1 << 8
	d := New(cfg)
	n := 1 << 20
	st := d.Launch(&Kernel{
		Name: "big", Class: OpElementWise, Threads: n,
		Mix:      InstrMix{Load: uint64(n)},
		Accesses: []Access{{Kind: LoadAccess, Base: d.AllocBlock(4*n, "scratch").Addr(), ElemBytes: 4, Count: n, Stride: 1}},
	})
	wantWarps := uint64(n / 32)
	got := st.LoadWarps
	if got < wantWarps/2 || got > wantWarps*2 {
		t.Fatalf("sampled load warps = %d, want ~%d", got, wantWarps)
	}
}

func TestLaunchDeterministic(t *testing.T) {
	mk := func() KernelStats {
		d := New(testConfig())
		idx := make([]int32, 4096)
		for i := range idx {
			idx[i] = int32((i * 48271) % 65536)
		}
		return d.Launch(&Kernel{
			Name: "k", Class: OpGather, Threads: 4096,
			Mix:      InstrMix{Load: 4096, Int32: 8192},
			Accesses: []Access{{Kind: LoadAccess, Base: 1 << 20, ElemBytes: 4, Indices: idx}},
		})
	}
	a, b := mk(), mk()
	if a != b && (a.L1Hits != b.L1Hits || a.L2Misses != b.L2Misses) {
		t.Fatalf("nondeterministic launch: %+v vs %+v", a, b)
	}
}

func TestIPCPositiveAndBounded(t *testing.T) {
	f := func(fp, ld uint16) bool {
		d := New(testConfig())
		st := d.Launch(&Kernel{
			Name: "k", Class: OpOther, Threads: 1 << 12,
			Mix: InstrMix{Fp32: uint64(fp) + 1, Load: uint64(ld)},
		})
		// IPC per SM cannot exceed issue width in warp instructions (4).
		return st.IPC > 0 && st.IPC <= 4.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOpClassString(t *testing.T) {
	if OpGEMM.String() != "GEMM" || OpSpMM.String() != "SpMM" {
		t.Fatal("unexpected op class names")
	}
	if OpClass(200).String() == "" {
		t.Fatal("out-of-range class must still stringify")
	}
	if !OpScatter.IsGraphOp() || OpGEMM.IsGraphOp() {
		t.Fatal("IsGraphOp misclassifies")
	}
	if len(AllOpClasses()) != NumOpClasses {
		t.Fatal("AllOpClasses length mismatch")
	}
}

// TestInstrMixShares holds the accumulation the profiler's instruction
// shares are computed over (profiler.TestSnapshotSharesSumToOne checks the
// shares themselves).
func TestInstrMixShares(t *testing.T) {
	m := InstrMix{Int32: 60, Fp32: 30, Load: 10}
	m2 := InstrMix{Int32: 1}
	m2.Add(m)
	if m2.Int32 != 61 || m2.Total() != 101 {
		t.Fatalf("Add broken: %+v", m2)
	}
}

func TestHalfPrecisionShrinksElem(t *testing.T) {
	cfg := testConfig()
	d := New(cfg)
	if d.FpElemBytes() != 4 {
		t.Fatal("default must be fp32")
	}
	cfg.HalfPrecision = true
	d16 := New(cfg)
	if d16.FpElemBytes() != 2 {
		t.Fatal("half precision must report 2-byte elements")
	}
}

// refDevice is the reference twin of a Device: its configuration, with the
// L1 and the warm L2 kept as reference stores.
type refDevice struct {
	cfg    Config
	l1, l2 *refCache
}

func newRefDevice(cfg Config) *refDevice {
	return &refDevice{
		cfg: cfg,
		l1:  newRefCache(cfg.L1SizeKB<<10, cfg.L1LineBytes, cfg.L1Ways),
		l2:  newRefCache(cfg.L2SizeKB<<10, cfg.L2LineBytes, cfg.L2Ways),
	}
}

// replayMemoryRef is the lane-by-lane replay that replayMemory replaced, kept
// as written (one address and one 64-bit divide per lane, a forward scan of
// the line buffer, a fresh scaled L1 per sampled launch) as the oracle
// TestReplayMatchesReference and FuzzReplayEquivalence hold the fast path to.
// It also returns the L1 it replayed through so the twins' cache state can be
// compared.
func (d *refDevice) replayMemoryRef(k *Kernel) (memResult, *refCache) {
	var res memResult

	totalWarps := 0
	for _, a := range k.Accesses {
		totalWarps += (a.lanes()+31)/32*a.repeats() + 1
	}
	sample := 1
	if totalWarps > d.cfg.MaxSampledWarps {
		sample = (totalWarps + d.cfg.MaxSampledWarps - 1) / d.cfg.MaxSampledWarps
	}
	scale := uint64(sample)

	l1 := d.l1
	if sample > 1 {
		size := (d.cfg.L1SizeKB << 10) / sample
		if minSize := 8 * d.cfg.L1LineBytes * d.cfg.L1Ways; size < minSize {
			size = minSize
		}
		l1 = newRefCache(size, d.cfg.L1LineBytes, d.cfg.L1Ways)
	}
	l1.invalidateRef()

	lineBytes := uint64(d.cfg.L1LineBytes)
	var lineBuf [32]uint64

	for _, a := range k.Accesses {
		lanes := a.lanes()
		if lanes == 0 {
			continue
		}
		warps := (lanes + 31) / 32
		for rep := 0; rep < a.repeats(); rep++ {
			for w := 0; w < warps; w += sample {
				startLane := w * 32
				endLane := startLane + 32
				if endLane > lanes {
					endLane = lanes
				}
				nLines := 0
				for lane := startLane; lane < endLane; lane++ {
					var addr uint64
					if a.Indices != nil {
						addr = a.Base + uint64(int64(a.Indices[lane]))*uint64(a.ElemBytes)
					} else {
						addr = a.Base + uint64(lane)*uint64(a.Stride)*uint64(a.ElemBytes)
					}
					line := addr / lineBytes
					seen := false
					for i := 0; i < nLines; i++ {
						if lineBuf[i] == line {
							seen = true
							break
						}
					}
					if !seen && nLines < len(lineBuf) {
						lineBuf[nLines] = line
						nLines++
					}
				}
				if a.Kind == LoadAccess {
					res.loadWarps += scale
					if nLines > 1 {
						res.divergentLoads += scale
					}
				}
				for i := 0; i < nLines; i++ {
					addr := lineBuf[i] * lineBytes
					if !d.cfg.BypassL1 && l1.accessLineRef(addr) {
						res.l1Hits += scale
						res.latencyCycles += float64(scale) * d.cfg.L1LatencyCycles
						continue
					}
					res.l1Misses += scale
					if d.l2.accessLineRef(addr) {
						res.l2Hits += scale
						res.latencyCycles += float64(scale) * d.cfg.L2LatencyCycles
					} else {
						res.l2Misses += scale
						res.latencyCycles += float64(scale) * d.cfg.DRAMLatencyCycles
					}
				}
			}
		}
	}
	return res, l1
}

func BenchmarkLaunchStreaming(b *testing.B) {
	d := New(testConfig())
	n := 1 << 18
	k := &Kernel{
		Name: "stream", Class: OpElementWise, Threads: n,
		Mix:      InstrMix{Load: uint64(n), Fp32: uint64(n)},
		Accesses: []Access{{Kind: LoadAccess, Base: 1 << 20, ElemBytes: 4, Count: n, Stride: 1}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Launch(k)
	}
}

// stridedKernel reads and writes n contiguous fp32 values and re-reads a
// small tile: the element-wise and GEMM shapes, all on the closed-form path.
func stridedKernel(n int) *Kernel {
	return &Kernel{
		Name: "strided", Class: OpElementWise, Threads: n,
		Mix: InstrMix{Load: uint64(2 * n), Store: uint64(n), Fp32: uint64(n)},
		Accesses: []Access{
			{Kind: LoadAccess, Base: 1 << 20, ElemBytes: 4, Count: n, Stride: 1},
			{Kind: LoadAccess, Base: 8 << 20, ElemBytes: 4, Count: n / 8, Stride: 1, Repeat: 8},
			{Kind: StoreAccess, Base: 16 << 20, ElemBytes: 4, Count: n, Stride: 1},
		},
	}
}

// gatherKernel gathers n rows of 4 bytes by pseudo-random index and stores
// them contiguously: the per-lane path.
func gatherKernel(n int) *Kernel {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32((i * 2654435761) % (1 << 20))
	}
	return &Kernel{
		Name: "gather", Class: OpGather, Threads: n,
		Mix: InstrMix{Load: uint64(n), Store: uint64(n), Int32: uint64(2 * n)},
		Accesses: []Access{
			{Kind: LoadAccess, Base: 1 << 20, ElemBytes: 4, Indices: idx},
			{Kind: StoreAccess, Base: 16 << 20, ElemBytes: 4, Count: n, Stride: 1},
		},
	}
}

func benchmarkReplay(b *testing.B, maxWarps int, k *Kernel) {
	cfg := testConfig()
	cfg.MaxSampledWarps = maxWarps
	d := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.replayMemory(k)
	}
}

func BenchmarkReplayStrided(b *testing.B) { benchmarkReplay(b, 1<<14, stridedKernel(1<<17)) }
func BenchmarkReplayGather(b *testing.B)  { benchmarkReplay(b, 1<<14, gatherKernel(1<<17)) }

// BenchmarkReplayRepeated replays Repeat: 4 streams shaped like the kernels
// serving launches most: a radix sort's key reads and key-derived scatter,
// and a gather of a few hundred 128-float rows. The sort's first rep evicts
// nothing from L1, so its later three are settled rather than walked; the
// gather's rows reach only even sets and its first rep evicts a few lines,
// so it settles after its second.
func BenchmarkReplayRepeated(b *testing.B) {
	const n = 480
	scatter, rows := make([]int32, n), make([]int32, n)
	for i := range scatter {
		key := int32((i * 2654435761) % 1682)
		scatter[i] = (key&0xff)*(n/256+1) + int32(i)%(n/256+1)
		rows[i] = key * 64
	}
	b.Run("sort", func(b *testing.B) {
		benchmarkReplay(b, 512, &Kernel{Name: "radix_sort", Class: OpSort, Threads: n, Accesses: []Access{
			{Kind: LoadAccess, Base: 1 << 20, ElemBytes: 4, Count: n, Stride: 1, Repeat: 4},
			{Kind: StoreAccess, Base: 1<<20 + 1<<16, ElemBytes: 4, Indices: scatter, Repeat: 4},
		}})
	})
	b.Run("gather", func(b *testing.B) {
		benchmarkReplay(b, 512, &Kernel{Name: "gather_rows", Class: OpGather, Threads: n * 32 * 4, Accesses: []Access{
			{Kind: LoadAccess, Base: 1 << 20, ElemBytes: 4, Count: n, Stride: 1},
			{Kind: LoadAccess, Base: 8 << 20, ElemBytes: 4, Indices: rows, Repeat: 4},
			{Kind: StoreAccess, Base: 16 << 20, ElemBytes: 4, Count: n, Stride: 1},
		}})
	})
}

// BenchmarkReplaySampled replays the strided kernel at a sampling factor of
// 23, through the scaled-down L1.
func BenchmarkReplaySampled(b *testing.B) { benchmarkReplay(b, 512, stridedKernel(1<<17)) }

// TestSampledLaunchDoesNotAllocate pins the scaled L1's reuse: once a sampled
// launch has built the L1 of its sample factor, launching at that factor
// again allocates nothing.
func TestSampledLaunchDoesNotAllocate(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSampledWarps = 512
	d := New(cfg)
	k := stridedKernel(1 << 17)
	if d.sampleFactor(k) < 2 {
		t.Fatal("kernel is not sampled; the test would pin nothing")
	}
	d.Launch(k)
	if allocs := testing.AllocsPerRun(20, func() { d.Launch(k) }); allocs != 0 {
		t.Fatalf("sampled Launch allocated %v times per run, want 0", allocs)
	}
}

func TestGPUPresets(t *testing.T) {
	for _, name := range []string{"", "v100", "p100", "a100", "h100"} {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
	}
	if _, err := Preset("k80"); err == nil {
		t.Fatal("unknown preset must error")
	}
	// Generational ordering of the headline capabilities.
	p, v, a, h := P100(), V100(), A100(), H100()
	if !(p.PeakGFLOPS() < v.PeakGFLOPS() && v.PeakGFLOPS() < a.PeakGFLOPS() && a.PeakGFLOPS() < h.PeakGFLOPS()) {
		t.Fatal("peak FLOPS not ordered across generations")
	}
	if !(p.DRAMBandwidthGBps < v.DRAMBandwidthGBps && v.DRAMBandwidthGBps < a.DRAMBandwidthGBps && a.DRAMBandwidthGBps < h.DRAMBandwidthGBps) {
		t.Fatal("bandwidth not ordered across generations")
	}
	if !(p.L2SizeKB < v.L2SizeKB && v.L2SizeKB < a.L2SizeKB && a.L2SizeKB <= h.L2SizeKB) {
		t.Fatal("L2 capacity not ordered across generations")
	}
}

func TestBypassL1RoutesToL2(t *testing.T) {
	cfg := testConfig()
	cfg.BypassL1 = true
	d := New(cfg)
	n := 1 << 12
	st := d.Launch(&Kernel{
		Name: "reuse", Class: OpElementWise, Threads: n,
		Mix: InstrMix{Load: uint64(8 * n)},
		Accesses: []Access{{
			Kind: LoadAccess, Base: d.AllocBlock(4*n, "scratch").Addr(), ElemBytes: 4,
			Count: n, Stride: 1, Repeat: 8,
		}},
	})
	if st.L1Hits != 0 {
		t.Fatalf("bypassed L1 recorded %d hits", st.L1Hits)
	}
	// The re-read working set hits in L2 instead.
	if hr := float64(st.L2Hits) / float64(st.L2Hits+st.L2Misses); hr < 0.8 {
		t.Fatalf("L2 hit rate %.2f under bypass, want high", hr)
	}
}
