package gpu

import (
	"fmt"
	"math"
	"math/bits"

	"gnnmark/internal/vmem"
)

// Device is a single simulated GPU. It owns a warm L2, a capacity-bounded
// caching allocator assigning device addresses, and the running clock of
// simulated time. A Device is not safe for concurrent use; GNNMark training
// loops are sequential, as PyTorch CUDA streams are within one iteration.
type Device struct {
	cfg Config
	l1  *Cache
	l2  *Cache
	// scaledL1 holds the shrunken L1 a warp-sampled launch replays through,
	// one per capacity, built on first use and invalidated per launch.
	scaledL1 map[int]*Cache

	mem        *vmem.Allocator
	pendingOOM *vmem.OOMError
	oomCursor  uint64

	seconds      float64
	kernelCount  uint64
	transferSecs float64

	health       Health
	kernelMult   float64
	transferMult float64

	kernelListeners   []func(KernelStats)
	transferListeners []func(TransferStats)
}

// Health is the device's hook into an injectable health plane (the fault
// package's Monitor). Poll is called with the device's local simulated clock
// before every kernel launch and host-device copy; it answers with the
// slowdown multipliers currently active (1 = healthy) and, when the plane
// runs in immediate mode, the first due fatal event as a non-nil error. The
// device raises that error at the Launch — as it does a parked
// vmem.OOMError — so a fatal health event surfaces from Guard as a clean,
// named abort at a deterministic point in the kernel stream.
type Health interface {
	Poll(nowSeconds float64) (kernelMult, transferMult float64, fatal error)
}

// TransferStats describes one host-device copy: the input to the sparsity
// characterization of Figures 7 and 8.
type TransferStats struct {
	Name         string
	Bytes        uint64
	ZeroFraction float64 // fraction of transferred values equal to zero
	Seconds      float64
	HostToDevice bool
}

// DefaultHBMBytes is the device-memory budget used when Config.HBMBytes is
// zero: the 16 GiB of the paper's V100-SXM2-16GB.
const DefaultHBMBytes = 16 << 30

// New constructs a Device from cfg. It panics when the config is invalid,
// mirroring the "fail at init" convention for programmer errors.
func New(cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	hbm := cfg.HBMBytes
	if hbm == 0 {
		hbm = DefaultHBMBytes
	}
	return &Device{
		cfg:          cfg,
		l1:           NewCache(cfg.L1SizeKB<<10, cfg.L1LineBytes, cfg.L1Ways),
		l2:           NewCache(cfg.L2SizeKB<<10, cfg.L2LineBytes, cfg.L2Ways),
		scaledL1:     map[int]*Cache{},
		mem:          vmem.New(hbm),
		kernelMult:   1,
		transferMult: 1,
	}
}

// AttachHealth installs the device's health plane (nil detaches it and
// restores healthy multipliers).
func (d *Device) AttachHealth(h Health) {
	d.health = h
	if h == nil {
		d.kernelMult, d.transferMult = 1, 1
	}
}

// pollHealth refreshes the cached slowdown multipliers from the health
// plane at the current device clock and raises the fatal error when the
// plane surfaces one (immediate mode).
func (d *Device) pollHealth() {
	if d.health == nil {
		return
	}
	k, x, fatal := d.health.Poll(d.seconds + d.transferSecs)
	if k < 1 {
		k = 1
	}
	if x < 1 {
		x = 1
	}
	d.kernelMult, d.transferMult = k, x
	if fatal != nil {
		raise(fatal)
	}
}

// TransferMult returns the health plane's current transfer slowdown (1 when
// healthy). Planes that model interconnect time themselves (partitioned
// halo copies, ring all-reduce) multiply their modeled durations by it.
func (d *Device) TransferMult() float64 { return d.transferMult }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// FpElemBytes returns the storage size of a floating-point element under the
// current precision mode (4, or 2 in HalfPrecision mode).
func (d *Device) FpElemBytes() int {
	if d.cfg.HalfPrecision {
		return 2
	}
	return 4
}

// AllocBlock reserves bytes of simulated device memory under tag (and, for
// a tensor, its shape: see vmem.Allocator.Alloc) and returns the block. The
// caller returns it with Free when the tensor's lifetime ends; freed
// addresses are reissued by the caching allocator, so the shared L2 sees
// cross-kernel reuse exactly as it does under PyTorch's allocator. On a
// simulated OOM the error is parked and a detached
// placeholder block is returned: kernel lowering proceeds harmlessly to the
// next Launch, which raises it with the kernel's name attached to the report.
func (d *Device) AllocBlock(bytes int, tag string, shape ...int) *vmem.Block {
	if bytes < 0 {
		panic("gpu: negative allocation")
	}
	b, err := d.mem.Alloc(int64(bytes), tag, shape...)
	if err != nil {
		if d.pendingOOM == nil {
			d.pendingOOM = err.(*vmem.OOMError)
		}
		// Placeholder addresses live far above any real segment so the
		// doomed kernel's access replay cannot alias live data.
		addr := uint64(1<<40) + d.oomCursor
		d.oomCursor += uint64(vmem.RoundSize(int64(bytes)))
		return vmem.Placeholder(addr, vmem.RoundSize(int64(bytes)))
	}
	return b
}

// Free returns a block to the device allocator (no-op for placeholders).
func (d *Device) Free(b *vmem.Block) { d.mem.Free(b) }

// Mem exposes the device's caching allocator.
func (d *Device) Mem() *vmem.Allocator { return d.mem }

// MemStats returns a snapshot of the device-memory allocator counters.
func (d *Device) MemStats() vmem.Stats { return d.mem.Stats() }

// Alloc reserves bytes of simulated device memory and returns the base
// address, leaking the block. It exists for tests and scratch callers that
// never release memory; tensor-lifetime code uses AllocBlock/Free.
func (d *Device) Alloc(bytes int) uint64 {
	return d.AllocBlock(bytes, "scratch").Addr()
}

// Subscribe registers a callback invoked with the stats of every kernel
// launch. The profiler uses this as its nvprof attach point.
func (d *Device) Subscribe(fn func(KernelStats)) { d.kernelListeners = append(d.kernelListeners, fn) }

// SubscribeTransfers registers a callback for host-device copies.
func (d *Device) SubscribeTransfers(fn func(TransferStats)) {
	d.transferListeners = append(d.transferListeners, fn)
}

// ElapsedSeconds returns total simulated time in seconds (kernels + launch
// overheads + transfers) since construction or the last ResetClock.
func (d *Device) ElapsedSeconds() float64 { return d.seconds + d.transferSecs }

// KernelCount returns the number of kernels launched.
func (d *Device) KernelCount() uint64 { return d.kernelCount }

// TransferSeconds returns the simulated host-device transfer time since the
// last ResetClock.
func (d *Device) TransferSeconds() float64 { return d.transferSecs }

// ResetClock zeroes simulated time and the kernel counter but keeps caches
// and allocations; used between measurement epochs.
func (d *Device) ResetClock() {
	d.seconds = 0
	d.transferSecs = 0
	d.kernelCount = 0
}

// CopyCost returns the modeled PCIe time of moving bytes host-to-device:
// a fixed DMA-setup latency plus the bandwidth term. The stream layer uses
// it to time copy-engine slices whose wire size differs from the raw
// payload (sparsity-compressed transfers).
func (d *Device) CopyCost(bytes uint64) float64 {
	const pcieLatency = 10e-6
	return pcieLatency + float64(bytes)/(d.cfg.PCIeBandwidthGBps*1e9)
}

// TransferCost is CopyCost derated by the health plane's current transfer
// slowdown: the duration a copy of bytes actually occupies on a stream lane.
func (d *Device) TransferCost(bytes uint64) float64 {
	return d.CopyCost(bytes) * d.transferMult
}

// CopyH2D models a host-to-device copy of bytes with the given fraction of
// zero values, advancing simulated time by the PCIe transfer cost.
func (d *Device) CopyH2D(name string, bytes uint64, zeroFraction float64) TransferStats {
	d.pollHealth()
	secs := d.CopyCost(bytes) * d.transferMult
	ts := TransferStats{
		Name:         name,
		Bytes:        bytes,
		ZeroFraction: zeroFraction,
		Seconds:      secs,
		HostToDevice: true,
	}
	d.transferSecs += secs
	for _, fn := range d.transferListeners {
		fn(ts)
	}
	return ts
}

// Launch models the execution of one kernel: replays its memory stream
// through the cache hierarchy, derives latency from a bottleneck timing
// model, attributes stalls, advances the simulated clock, and notifies
// subscribers. The returned stats are also delivered to listeners.
func (d *Device) Launch(k *Kernel) KernelStats {
	if oom := d.pendingOOM; oom != nil {
		d.pendingOOM = nil
		oom.Kernel = k.Name
		raise(oom)
	}
	d.pollHealth()
	if k.Threads <= 0 {
		k.Threads = 32
	}
	if k.DepChain < 1 {
		k.DepChain = 1
	}
	if k.Efficiency <= 0 || k.Efficiency > 1 {
		k.Efficiency = 1
	}

	mem := d.replayMemory(k)

	stats := KernelStats{
		Name:           k.Name,
		Class:          k.Class,
		Threads:        k.Threads,
		Mix:            k.Mix,
		Flops:          k.Flops,
		Iops:           k.Iops,
		L1Hits:         mem.l1Hits,
		L1Misses:       mem.l1Misses,
		L2Hits:         mem.l2Hits,
		L2Misses:       mem.l2Misses,
		DRAMBytes:      mem.l2Misses * uint64(d.cfg.L2LineBytes),
		LoadWarps:      mem.loadWarps,
		DivergentLoads: mem.divergentLoads,
	}

	d.timeKernel(k, mem, &stats)

	// A thermal clamp stretches execution time without changing the work:
	// the same cycles run at a lower clock, so Seconds scales while Cycles,
	// IPC, and every cache/instruction counter stay bitwise identical.
	stats.Seconds *= d.kernelMult

	// Host dispatch runs asynchronously ahead of the GPU: launch overhead
	// only extends the timeline when the kernel is too short to hide it
	// (the launch-bound regime of many-tiny-kernel workloads). Stats keep
	// the exposed portion so profiles can attribute it.
	stats.Launch = maxf(0, stats.Launch-stats.Seconds)
	d.seconds += stats.Seconds + stats.Launch
	d.kernelCount++
	for _, fn := range d.kernelListeners {
		fn(stats)
	}
	return stats
}

// memResult aggregates the cache replay outcome of one kernel.
type memResult struct {
	l1Hits, l1Misses uint64
	l2Hits, l2Misses uint64
	loadWarps        uint64
	divergentLoads   uint64
	// warpTransactions is the number of line-level transactions issued.
	warpTransactions uint64
	// latencyCycles is the sum of per-transaction service latencies.
	latencyCycles float64
}

// replayMemory walks the kernel's access patterns at warp granularity: each
// warp's (up to) 32 lane addresses are coalesced into distinct L1 lines, and
// each distinct line becomes one transaction through L1 then (on miss) L2.
// Streams longer than MaxSampledWarps warps are stride-sampled and all
// counters rescaled by the sampling factor.
//
// A warp's lines are replayed in order of first appearance, which the LRU
// state depends on. For a strided access whose byte step is non-negative and
// at most one line, lane addresses never decrease and never skip a line, so
// that order is the ascending run firstLine..lastLine and needs no per-lane
// work; every other access walks its lanes. replayMemoryRef in
// device_test.go is the lane-by-lane walk this must equal field for field.
func (d *Device) replayMemory(k *Kernel) memResult {
	var res memResult

	sample := d.sampleFactor(k)
	scale := uint64(sample)
	l1, l2 := d.l1For(sample), d.l2
	l1.Invalidate()
	l2.ResetCounters()

	// An L1 line number becomes an L2 line number by the difference of the
	// two shifts; one of up and down is zero.
	shift := l1.lineShift
	var up, down uint
	if shift >= l2.lineShift {
		up = shift - l2.lineShift
	} else {
		down = l2.lineShift - shift
	}
	useL1 := !d.cfg.BypassL1
	l1Lat := float64(scale) * d.cfg.L1LatencyCycles
	l2Lat := float64(scale) * d.cfg.L2LatencyCycles
	dramLat := float64(scale) * d.cfg.DRAMLatencyCycles
	var lineBuf [32]uint64

	for i := range k.Accesses {
		a := &k.Accesses[i]
		lanes := a.lanes()
		if lanes == 0 {
			continue
		}
		warps := (lanes + 31) / 32
		isLoad := a.Kind == LoadAccess
		elem := uint64(a.ElemBytes)
		step := uint64(a.Stride) * elem
		run := a.coalescesToRun(lanes, l1.lineBytes)
		for rep := a.repeats(); rep > 0; rep-- {
			for w := 0; w < warps; w += sample {
				startLane := w * 32
				endLane := min(startLane+32, lanes)
				nLines := 0
				if run {
					first := (a.Base + uint64(startLane)*step) >> shift
					last := (a.Base + uint64(endLane-1)*step) >> shift
					nLines = int(last-first) + 1
					for j := range lineBuf[:nLines] {
						lineBuf[j] = first + uint64(j)
					}
				} else {
					for lane := startLane; lane < endLane; lane++ {
						var addr uint64
						if a.Indices != nil {
							addr = a.Base + uint64(int64(a.Indices[lane]))*elem
						} else {
							addr = a.Base + uint64(lane)*step
						}
						line := addr >> shift
						// Newest first: a repeated line is most often the
						// previous lane's.
						j := nLines - 1
						for j >= 0 && lineBuf[j] != line {
							j--
						}
						if j < 0 {
							lineBuf[nLines] = line
							nLines++
						}
					}
				}
				if isLoad {
					res.loadWarps += scale
					if nLines > 1 {
						res.divergentLoads += scale
					}
				}
				for _, line := range lineBuf[:nLines] {
					res.warpTransactions += scale
					if useL1 && l1.touch(line) {
						res.l1Hits += scale
						res.latencyCycles += l1Lat
						continue
					}
					res.l1Misses += scale
					if l2.touch(line << up >> down) {
						res.l2Hits += scale
						res.latencyCycles += l2Lat
					} else {
						res.l2Misses += scale
						res.latencyCycles += dramLat
					}
				}
			}
		}
	}
	return res
}

// sampleFactor returns the warp stride k's stream is replayed at: 1 while it
// fits MaxSampledWarps, else the smallest stride that makes it fit.
func (d *Device) sampleFactor(k *Kernel) int {
	totalWarps := 0
	for _, a := range k.Accesses {
		totalWarps += (a.lanes()+31)/32*a.repeats() + 1
	}
	if totalWarps <= d.cfg.MaxSampledWarps {
		return 1
	}
	return (totalWarps + d.cfg.MaxSampledWarps - 1) / d.cfg.MaxSampledWarps
}

// l1For returns the L1 a launch sampled at the given factor replays through.
// L1 is cold per kernel (private per-SM caches do not survive launches in any
// useful way for these streaming workloads) while the shared L2 stays warm.
// When the stream is warp-sampled, L1 capacity is scaled down by the same
// factor so the sampled working set keeps its true ratio to capacity (plain
// sampling would inflate hit rates on re-read patterns). The caller
// invalidates it.
func (d *Device) l1For(sample int) *Cache {
	if sample == 1 {
		return d.l1
	}
	size := (d.cfg.L1SizeKB << 10) / sample
	if minSize := 8 * d.cfg.L1LineBytes * d.cfg.L1Ways; size < minSize {
		size = minSize
	}
	l1 := d.scaledL1[size]
	if l1 == nil {
		l1 = NewCache(size, d.cfg.L1LineBytes, d.cfg.L1Ways)
		d.scaledL1[size] = l1
	}
	return l1
}

// coalescesToRun reports whether every warp of a touches consecutive lines in
// ascending order: a is strided, its byte step is at most one line, so lane
// addresses never decrease and never skip a line, and the last lane's address
// does not wrap. A negative stride or element size reads as 2^63 or more
// here, as it does in the address arithmetic, and so fails the step test (or
// is multiplied by zero, and every lane touches Base).
func (a *Access) coalescesToRun(lanes, lineBytes int) bool {
	if a.Indices != nil {
		return false
	}
	hi, step := bits.Mul64(uint64(a.Stride), uint64(a.ElemBytes))
	if hi != 0 || step > uint64(lineBytes) {
		return false
	}
	return step == 0 || uint64(lanes-1) <= (math.MaxUint64-a.Base)/step
}

// timeKernel fills Seconds, Launch, Cycles, Stalls, and IPC. The latency
// model is a bottleneck ("roofline with exposure") formulation:
//
//	cycles = max(compute, L2 BW, DRAM BW, fetch) + exposed memory latency
//
// where compute is the slowest functional-unit pipe derated by the
// dependency-chain factor, bandwidth terms convert cache traffic through
// per-cycle byte rates, the fetch term charges I-cache pressure from the
// static code footprint, and exposed latency is total transaction latency
// divided by the latency-hiding capacity (resident warps x MLP).
func (d *Device) timeKernel(k *Kernel, mem memResult, st *KernelStats) {
	cfg := d.cfg

	activeSMs := (k.Threads + 127) / 128
	if activeSMs > cfg.NumSMs {
		activeSMs = cfg.NumSMs
	}
	if activeSMs < 1 {
		activeSMs = 1
	}
	fa := float64(activeSMs)

	threadsPerSM := float64(k.Threads) / fa
	if threadsPerSM > float64(cfg.MaxThreadsPerSM) {
		threadsPerSM = float64(cfg.MaxThreadsPerSM)
	}
	occupancy := threadsPerSM / float64(cfg.MaxThreadsPerSM)
	if occupancy < 1.0/64 {
		occupancy = 1.0 / 64
	}

	// Functional-unit pipe cycles.
	fpCyc := float64(k.Mix.Fp32) / (float64(cfg.FP32LanesPerSM) * fa)
	fpCyc += float64(k.Mix.Fp16) / (2 * float64(cfg.FP32LanesPerSM) * fa)
	intCyc := float64(k.Mix.Int32) / (float64(cfg.INT32LanesPerSM) * fa)
	lsCyc := float64(k.Mix.Load+k.Mix.Store) / (float64(cfg.LSLanesPerSM) * fa)
	sfuCyc := float64(k.Mix.Special) / (float64(cfg.SFULanesPerSM) * fa)
	issueCyc := float64(k.Mix.Total()) / (float64(cfg.IssueLanesPerSM) * fa)

	// Dependency chains inflate the critical pipe when occupancy cannot
	// cover them: with w warps per scheduler, a chain of depth c stalls
	// issue for max(0, c-w) slots per instruction on average.
	warpsPerScheduler := threadsPerSM / 32 / 4
	if warpsPerScheduler < 1 {
		warpsPerScheduler = 1
	}
	depFactor := 1 + (k.DepChain-1)/warpsPerScheduler
	computeCyc := maxf(fpCyc, intCyc, lsCyc, sfuCyc, issueCyc) * depFactor / k.Efficiency

	// Bandwidth terms.
	l2TrafficBytes := float64(mem.l1Misses) * float64(cfg.L1LineBytes)
	l2Cyc := l2TrafficBytes / cfg.l2BytesPerCycle()
	dramCyc := float64(st.DRAMBytes) / cfg.dramBytesPerCycle()

	// Fetch term: penalty grows as the static footprint overflows L0/L1
	// instruction caches. Unrolled GEMM/conv kernels are large.
	fetchPenalty := 0.04
	switch {
	case k.CodeBytes > cfg.ICacheL1Bytes:
		fetchPenalty = 0.55
	case k.CodeBytes > cfg.ICacheL0Bytes:
		fetchPenalty = 0.30
	}
	fetchCyc := issueCyc * fetchPenalty * 4

	// Exposed memory latency: hiding capacity is resident warps times an
	// assumed memory-level parallelism of 4 outstanding loads per warp.
	hiding := (threadsPerSM / 32) * 4 * fa
	if hiding < 1 {
		hiding = 1
	}
	exposedLat := mem.latencyCycles / hiding

	base := maxf(computeCyc, l2Cyc, dramCyc, fetchCyc)
	// Imperfect overlap: a fraction of the non-critical components leaks
	// into the critical path.
	leak := 0.15 * (computeCyc + l2Cyc + dramCyc + fetchCyc - base)
	cycles := base + leak + exposedLat
	if cycles < 1 {
		cycles = 1
	}

	// Stall attribution (Figure 5 categories): a calibrated blend. Each
	// share has a Volta-measured base level, modulated by the kernel's own
	// behavior — memory-dependency by the unhidden-latency share of the
	// critical path, instruction fetch by the I-cache footprint, execution
	// dependency by the dependency-chain factor, synchronization by
	// explicit barriers. The residual is the nvprof "other/not selected"
	// bucket.
	memIntensity := (exposedLat + maxf(l2Cyc, dramCyc)) / cycles
	if memIntensity > 1 {
		memIntensity = 1
	}
	memComp := 0.14 + 0.45*memIntensity
	fetchBase := 0.12
	if k.CodeBytes > cfg.ICacheL0Bytes {
		fetchBase = 0.22
	}
	if k.CodeBytes > cfg.ICacheL1Bytes {
		fetchBase = 0.30
	}
	fetchComp := fetchBase * (0.6 + 0.4*issueCyc/maxf(1, computeCyc))
	execComp := 0.16 + 0.18*(k.DepChain-1)
	syncComp := 0.02
	if k.Barriers > 0 {
		syncComp += 0.015 * float64(min(k.Barriers, 8))
	}
	otherComp := 0.10
	st.Stalls = StallBreakdown{
		MemoryDep:  memComp,
		ExecDep:    execComp,
		InstrFetch: fetchComp,
		Sync:       syncComp,
		Other:      otherComp,
	}
	st.Stalls.Normalize()

	st.Cycles = cycles
	st.Seconds = cycles / cfg.ClockHz()
	st.Launch = cfg.LaunchOverheadUS * 1e-6
	// IPC per active SM (nvprof's executed_ipc is per-SM over SMs with
	// resident warps).
	warpInstr := float64(k.Mix.Total()) / 32
	st.IPC = warpInstr / (cycles * fa)
}

func maxf(vs ...float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// String summarizes the device for logs.
func (d *Device) String() string {
	return fmt.Sprintf("%s (%d SMs, %.2f GHz, %.0f GB/s)",
		d.cfg.Name, d.cfg.NumSMs, d.cfg.ClockGHz, d.cfg.DRAMBandwidthGBps)
}
