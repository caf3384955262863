// Package profiler aggregates the per-kernel statistics emitted by the
// simulated device into the metrics the paper reports: execution-time
// breakdown by operation class (Fig. 2), dynamic instruction mix (Fig. 3),
// achieved GFLOPS/GIOPS and IPC (Fig. 4), stall attribution (Fig. 5), cache
// hit rates and memory divergence (Fig. 6), and host-to-device transfer
// sparsity (Figs. 7-8). It is the in-simulator equivalent of the paper's
// nvprof + NVBit + modified-PyTorch toolchain.
package profiler

import (
	"gnnmark/internal/gpu"
)

// ClassStats accumulates counters for one operation class.
type ClassStats struct {
	Seconds        float64
	LaunchSeconds  float64
	Kernels        uint64
	Flops          uint64
	Iops           uint64
	Mix            gpu.InstrMix
	L1Hits         uint64
	L1Misses       uint64
	L2Hits         uint64
	L2Misses       uint64
	LoadWarps      uint64
	DivergentLoads uint64
	// StallsWeighted is the time-weighted stall breakdown (seconds per
	// category); normalize for fractions.
	StallsWeighted gpu.StallBreakdown
	// IPCWeighted is sum(IPC * seconds); divide by Seconds for the mean.
	IPCWeighted float64
}

// Add accumulates o into c, every field (TestClassStatsAddCoversEveryField).
func (c *ClassStats) Add(o ClassStats) {
	c.Seconds += o.Seconds
	c.LaunchSeconds += o.LaunchSeconds
	c.Kernels += o.Kernels
	c.Flops += o.Flops
	c.Iops += o.Iops
	c.Mix.Add(o.Mix)
	c.L1Hits += o.L1Hits
	c.L1Misses += o.L1Misses
	c.L2Hits += o.L2Hits
	c.L2Misses += o.L2Misses
	c.LoadWarps += o.LoadWarps
	c.DivergentLoads += o.DivergentLoads
	c.StallsWeighted.Add(o.StallsWeighted)
	c.IPCWeighted += o.IPCWeighted
}

// L1HitRate returns the class's L1 hit rate.
func (c *ClassStats) L1HitRate() float64 {
	t := c.L1Hits + c.L1Misses
	if t == 0 {
		return 0
	}
	return float64(c.L1Hits) / float64(t)
}

// L2HitRate returns the class's L2 hit rate.
func (c *ClassStats) L2HitRate() float64 {
	t := c.L2Hits + c.L2Misses
	if t == 0 {
		return 0
	}
	return float64(c.L2Hits) / float64(t)
}

// DivergenceRate returns the class's divergent-load fraction.
func (c *ClassStats) DivergenceRate() float64 {
	if c.LoadWarps == 0 {
		return 0
	}
	return float64(c.DivergentLoads) / float64(c.LoadWarps)
}

// GFLOPS returns the class's achieved GFLOPS over its kernel time.
func (c *ClassStats) GFLOPS() float64 {
	if c.Seconds == 0 {
		return 0
	}
	return float64(c.Flops) / c.Seconds / 1e9
}

// GIOPS returns the class's achieved integer GOPS over its kernel time.
func (c *ClassStats) GIOPS() float64 {
	if c.Seconds == 0 {
		return 0
	}
	return float64(c.Iops) / c.Seconds / 1e9
}

// TransferSample is one recorded host-to-device copy.
type TransferSample struct {
	Iteration int
	Bytes     uint64
	ZeroFrac  float64
}

// Profiler subscribes to a device and accumulates metrics. Not safe for
// concurrent use (training loops are sequential).
type Profiler struct {
	perClass  [gpu.NumOpClasses]ClassStats
	transfers []TransferSample
	iteration int
	epochs    []float64 // device-elapsed seconds at each epoch mark
	dev       *gpu.Device
}

// Attach creates a profiler subscribed to dev's kernel and transfer streams.
func Attach(dev *gpu.Device) *Profiler {
	p := &Profiler{dev: dev}
	dev.Subscribe(p.onKernel)
	dev.SubscribeTransfers(p.onTransfer)
	return p
}

func (p *Profiler) onKernel(ks gpu.KernelStats) {
	c := &p.perClass[ks.Class]
	c.Seconds += ks.Seconds
	c.LaunchSeconds += ks.Launch
	c.Kernels++
	c.Flops += ks.Flops
	c.Iops += ks.Iops
	c.Mix.Add(ks.Mix)
	c.L1Hits += ks.L1Hits
	c.L1Misses += ks.L1Misses
	c.L2Hits += ks.L2Hits
	c.L2Misses += ks.L2Misses
	c.LoadWarps += ks.LoadWarps
	c.DivergentLoads += ks.DivergentLoads
	c.StallsWeighted.Add(ks.Stalls.Scale(ks.Seconds))
	c.IPCWeighted += ks.IPC * ks.Seconds
}

func (p *Profiler) onTransfer(ts gpu.TransferStats) {
	if !ts.HostToDevice {
		return
	}
	p.transfers = append(p.transfers, TransferSample{
		Iteration: p.iteration,
		Bytes:     ts.Bytes,
		ZeroFrac:  ts.ZeroFraction,
	})
}

// NextIteration advances the iteration counter used to tag transfers
// (Fig. 8's x-axis). Call once per training iteration.
func (p *Profiler) NextIteration() { p.iteration++ }

// MarkEpoch records the device clock at an epoch boundary; per-epoch times
// are the deltas.
func (p *Profiler) MarkEpoch() {
	p.epochs = append(p.epochs, p.dev.ElapsedSeconds())
}

// EpochSeconds returns per-epoch durations from the recorded marks,
// treating time zero (or the previous mark) as each epoch's start.
func (p *Profiler) EpochSeconds() []float64 {
	out := make([]float64, len(p.epochs))
	prev := 0.0
	for i, m := range p.epochs {
		out[i] = m - prev
		prev = m
	}
	return out
}

// Class returns the accumulated stats of one class, every kernel launched
// so far included (it syncs the device).
func (p *Profiler) Class(c gpu.OpClass) *ClassStats {
	p.dev.Sync()
	return &p.perClass[c]
}

// Reset clears all accumulated state (counters, transfers, epoch marks),
// every kernel launched so far included.
func (p *Profiler) Reset() {
	p.dev.Sync()
	p.perClass = [gpu.NumOpClasses]ClassStats{}
	p.transfers = nil
	p.epochs = nil
	p.iteration = 0
}
