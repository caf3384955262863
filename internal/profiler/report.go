package profiler

import (
	"fmt"
	"sort"
	"strings"

	"gnnmark/internal/gpu"
)

// Report is the distilled characterization of one profiled run: every
// number one of the paper's figures needs.
type Report struct {
	// TimeShare[c] is the fraction of kernel execution time spent in class
	// c (Figure 2). Shares sum to 1 over classes with any time.
	TimeShare [gpu.NumOpClasses]float64
	// ClassSeconds[c] is absolute kernel time per class.
	ClassSeconds [gpu.NumOpClasses]float64

	// Instruction mix shares (Figure 3).
	IntShare, FpShare, OtherShare float64

	// Achieved rates over total kernel time (Figure 4).
	GFLOPS, GIOPS float64
	// IPC is the time-weighted mean warp IPC per SM.
	IPC float64

	// Stalls is the time-weighted stall breakdown (Figure 5).
	Stalls gpu.StallBreakdown

	// Cache and divergence behavior (Figure 6).
	L1HitRate, L2HitRate, DivergenceRate float64

	// Transfer sparsity (Figure 7): mean zero fraction weighted by bytes.
	AvgSparsity float64
	// H2DBytes is the total bytes copied host to device.
	H2DBytes uint64

	// Totals.
	KernelSeconds float64
	LaunchSeconds float64
	Kernels       uint64
}

// Snapshot computes a Report from the current accumulated state.
func (p *Profiler) Snapshot() Report {
	var r Report
	var total ClassStats
	for c := range p.perClass {
		r.ClassSeconds[c] = p.perClass[c].Seconds
		total.Add(p.perClass[c])
	}
	r.KernelSeconds, r.LaunchSeconds, r.Kernels = total.Seconds, total.LaunchSeconds, total.Kernels
	r.L1HitRate, r.L2HitRate, r.DivergenceRate = total.L1HitRate(), total.L2HitRate(), total.DivergenceRate()
	r.GFLOPS, r.GIOPS, r.Stalls = total.GFLOPS(), total.GIOPS(), total.StallsWeighted
	if r.KernelSeconds > 0 {
		for c := range r.TimeShare {
			r.TimeShare[c] = r.ClassSeconds[c] / r.KernelSeconds
		}
		r.IPC = total.IPCWeighted / r.KernelSeconds
	}
	if n := float64(total.Mix.Total()); n > 0 {
		r.IntShare = float64(total.Mix.Int32) / n
		r.FpShare = float64(total.Mix.Fp32+total.Mix.Fp16) / n
		r.OtherShare = 1 - r.IntShare - r.FpShare
	}
	r.Stalls.Normalize()

	var zeroWeighted float64
	for _, ts := range p.transfers {
		r.H2DBytes += ts.Bytes
		zeroWeighted += ts.ZeroFrac * float64(ts.Bytes)
	}
	if r.H2DBytes > 0 {
		r.AvgSparsity = zeroWeighted / float64(r.H2DBytes)
	}
	return r
}

// SparsityTimeline returns the byte-weighted mean zero fraction per
// iteration (Figure 8's series), in iteration order.
func (p *Profiler) SparsityTimeline() []float64 {
	type acc struct{ zw, bytes float64 }
	m := map[int]*acc{}
	maxIter := -1
	for _, ts := range p.transfers {
		a := m[ts.Iteration]
		if a == nil {
			a = &acc{}
			m[ts.Iteration] = a
		}
		a.zw += ts.ZeroFrac * float64(ts.Bytes)
		a.bytes += float64(ts.Bytes)
		if ts.Iteration > maxIter {
			maxIter = ts.Iteration
		}
	}
	out := make([]float64, maxIter+1)
	for it, a := range m {
		if a.bytes > 0 {
			out[it] = a.zw / a.bytes
		}
	}
	return out
}

// GraphOpTimeShare returns the combined time share of the irregular graph
// operations (scatter, gather, reduction, index-select, sort) — the 20.8%
// aggregate the paper calls out.
func (r Report) GraphOpTimeShare() float64 {
	s := 0.0
	for _, c := range gpu.AllOpClasses() {
		if c.IsGraphOp() {
			s += r.TimeShare[c]
		}
	}
	return s
}

// GEMMSpMMTimeShare returns the combined GEMM+SpMM share (the paper's ~25%
// contrast with DNN workloads).
func (r Report) GEMMSpMMTimeShare() float64 {
	return r.TimeShare[gpu.OpGEMM] + r.TimeShare[gpu.OpSpMM]
}

// String renders a compact multi-line summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernels=%d time=%.4fs (+%.4fs launch)\n",
		r.Kernels, r.KernelSeconds, r.LaunchSeconds)
	fmt.Fprintf(&b, "mix: int=%.1f%% fp=%.1f%% other=%.1f%%\n",
		100*r.IntShare, 100*r.FpShare, 100*r.OtherShare)
	fmt.Fprintf(&b, "rates: %.0f GFLOPS %.0f GIOPS ipc=%.2f\n", r.GFLOPS, r.GIOPS, r.IPC)
	fmt.Fprintf(&b, "caches: L1=%.1f%% L2=%.1f%% divergent=%.1f%%\n",
		100*r.L1HitRate, 100*r.L2HitRate, 100*r.DivergenceRate)
	fmt.Fprintf(&b, "stalls: mem=%.1f%% exec=%.1f%% fetch=%.1f%% sync=%.1f%% other=%.1f%%\n",
		100*r.Stalls.MemoryDep, 100*r.Stalls.ExecDep, 100*r.Stalls.InstrFetch,
		100*r.Stalls.Sync, 100*r.Stalls.Other)
	fmt.Fprintf(&b, "sparsity: %.1f%% of %.2f MB H2D\n",
		100*r.AvgSparsity, float64(r.H2DBytes)/(1<<20))

	type share struct {
		c gpu.OpClass
		v float64
	}
	var shares []share
	for _, c := range gpu.AllOpClasses() {
		if r.TimeShare[c] > 0 {
			shares = append(shares, share{c, r.TimeShare[c]})
		}
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].v > shares[j].v })
	b.WriteString("time by op:")
	for _, s := range shares {
		fmt.Fprintf(&b, " %s=%.1f%%", s.c, 100*s.v)
	}
	b.WriteString("\n")
	return b.String()
}
