package gpu

// InstrMix counts dynamic thread-level instructions by class.
type InstrMix struct {
	Int32   uint64 // integer ALU (address math, comparisons, graph indices)
	Fp32    uint64 // single-precision floating point (FMA counted once)
	Fp16    uint64 // half-precision (only in HalfPrecision mode)
	Load    uint64 // global/local load instructions
	Store   uint64 // global/local store instructions
	Control uint64 // branches, predicates, barriers
	Special uint64 // SFU ops: exp, log, rsqrt, sigmoid/tanh pipelines
}

// Total returns the total dynamic thread-instruction count.
func (m InstrMix) Total() uint64 {
	return m.Int32 + m.Fp32 + m.Fp16 + m.Load + m.Store + m.Control + m.Special
}

// Add accumulates other into m.
func (m *InstrMix) Add(other InstrMix) {
	m.Int32 += other.Int32
	m.Fp32 += other.Fp32
	m.Fp16 += other.Fp16
	m.Load += other.Load
	m.Store += other.Store
	m.Control += other.Control
	m.Special += other.Special
}

// IntShare returns the fraction of instructions that are int32.
func (m InstrMix) IntShare() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return float64(m.Int32) / float64(t)
}

// FpShare returns the fraction of instructions that are fp32+fp16.
func (m InstrMix) FpShare() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return float64(m.Fp32+m.Fp16) / float64(t)
}

// AccessKind distinguishes loads from stores in an access pattern.
type AccessKind uint8

const (
	// LoadAccess is a read from device memory.
	LoadAccess AccessKind = iota
	// StoreAccess is a write to device memory.
	StoreAccess
)

// Access describes a stream of per-thread memory accesses issued by a
// kernel. The device model walks the stream in warps of 32 lanes, coalesces
// lanes into distinct cache lines, and replays the resulting line
// transactions through the L1/L2 hierarchy.
//
// Exactly one addressing form is used:
//
//   - Strided: lanes i = 0..Count-1 touch Base + i*Stride*ElemBytes.
//   - Indexed: lanes touch Base + Indices[i]*ElemBytes (data-dependent;
//     Count is ignored and len(Indices) is used).
type Access struct {
	Kind      AccessKind
	Base      uint64
	ElemBytes int
	Count     int
	Stride    int
	Indices   []int32
	// Repeat replays the whole pattern this many times (default treated as
	// 1); used for loop-reuse patterns such as GEMM tile re-reads without
	// materializing the stream.
	Repeat int
}

// lanes returns the number of per-thread accesses in one repetition.
func (a Access) lanes() int {
	if a.Indices != nil {
		return len(a.Indices)
	}
	return a.Count
}

// repeats returns the replay count, minimum 1.
func (a Access) repeats() int {
	if a.Repeat < 1 {
		return 1
	}
	return a.Repeat
}

// Kernel is the unit of work submitted to a Device: the synthetic analogue
// of a CUDA kernel launch. Op lowering in internal/ops constructs these.
type Kernel struct {
	// Name labels the kernel in traces ("sgemm_128x64", "scatter_add", ...).
	Name string
	// Class is the GNNMark operation class used for Figure 2 aggregation.
	Class OpClass
	// Threads is the total number of launched threads.
	Threads int
	// Mix is the dynamic instruction mix.
	Mix InstrMix
	// Flops and Iops count arithmetic work (FMA = 2 flops) for Figure 4.
	Flops uint64
	Iops  uint64
	// Accesses is the device-memory access stream.
	Accesses []Access
	// CodeBytes is the static SASS footprint, input to the fetch-stall
	// model; large unrolled kernels overflow the L0 I-cache.
	CodeBytes int
	// DepChain models instruction-level parallelism limits: the average
	// number of issue slots each instruction must wait on its producers,
	// 1.0 = perfectly pipelined. Drives execution-dependency stalls.
	DepChain float64
	// Efficiency derates functional-unit throughput (0 < e <= 1, default 1):
	// tiling/utilization losses of kernels whose inner dimensions do not
	// fill the hardware tiles (small-K GEMMs, thin convolutions).
	Efficiency float64
	// Barriers counts __syncthreads-style barriers per thread, driving the
	// synchronization stall share.
	Barriers int
}

// StallBreakdown gives the fraction of issue stalls by reason, matching the
// nvprof categories reported in Figure 5. Fractions sum to 1 when any stall
// exists.
type StallBreakdown struct {
	MemoryDep  float64 // stall_memory_dependency
	ExecDep    float64 // stall_exec_dependency
	InstrFetch float64 // stall_inst_fetch
	Sync       float64 // stall_sync
	Other      float64 // stall_other / not_selected
}

// Scale returns the breakdown multiplied by w (for weighted averaging).
func (s StallBreakdown) Scale(w float64) StallBreakdown {
	return StallBreakdown{
		MemoryDep:  s.MemoryDep * w,
		ExecDep:    s.ExecDep * w,
		InstrFetch: s.InstrFetch * w,
		Sync:       s.Sync * w,
		Other:      s.Other * w,
	}
}

// Add accumulates other into s.
func (s *StallBreakdown) Add(other StallBreakdown) {
	s.MemoryDep += other.MemoryDep
	s.ExecDep += other.ExecDep
	s.InstrFetch += other.InstrFetch
	s.Sync += other.Sync
	s.Other += other.Other
}

// Normalize rescales the breakdown to sum to 1 (no-op when empty).
func (s *StallBreakdown) Normalize() {
	t := s.MemoryDep + s.ExecDep + s.InstrFetch + s.Sync + s.Other
	if t <= 0 {
		return
	}
	s.MemoryDep /= t
	s.ExecDep /= t
	s.InstrFetch /= t
	s.Sync /= t
	s.Other /= t
}

// KernelStats is the per-launch counter set the profiler consumes: the
// synthetic equivalent of one nvprof row plus NVBit divergence data.
type KernelStats struct {
	Name    string
	Class   OpClass
	Threads int

	Seconds float64 // modeled kernel latency (excludes launch overhead)
	Launch  float64 // modeled launch overhead in seconds
	Cycles  float64

	Mix   InstrMix
	Flops uint64
	Iops  uint64

	L1Hits   uint64
	L1Misses uint64
	L2Hits   uint64
	L2Misses uint64
	// DRAMBytes is traffic to device memory (L2 miss fills + writebacks).
	DRAMBytes uint64

	// LoadWarps counts warp-level load instructions replayed; Divergent
	// counts those touching more than one cache line.
	LoadWarps      uint64
	DivergentLoads uint64

	Stalls StallBreakdown
	// IPC is warp instructions per cycle per SM, the nvprof executed_ipc
	// analogue.
	IPC float64
}

// L1HitRate returns the L1 data-cache hit rate for this launch.
func (ks KernelStats) L1HitRate() float64 {
	t := ks.L1Hits + ks.L1Misses
	if t == 0 {
		return 0
	}
	return float64(ks.L1Hits) / float64(t)
}

// L2HitRate returns the L2 hit rate for this launch.
func (ks KernelStats) L2HitRate() float64 {
	t := ks.L2Hits + ks.L2Misses
	if t == 0 {
		return 0
	}
	return float64(ks.L2Hits) / float64(t)
}

// DivergenceRate returns the fraction of load warps that were divergent.
func (ks KernelStats) DivergenceRate() float64 {
	if ks.LoadWarps == 0 {
		return 0
	}
	return float64(ks.DivergentLoads) / float64(ks.LoadWarps)
}
