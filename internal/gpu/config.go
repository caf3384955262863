package gpu

import "gnnmark/internal/obs"

// Config holds every parameter of the device model. The zero value is not
// usable; start from V100() (or another preset) and override fields.
type Config struct {
	// Name identifies the device in reports.
	Name string

	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// ClockGHz is the SM clock in GHz.
	ClockGHz float64
	// FP32LanesPerSM is fp32 thread-instruction throughput per SM per cycle.
	FP32LanesPerSM int
	// INT32LanesPerSM is int32 thread-instruction throughput per SM per cycle.
	INT32LanesPerSM int
	// LSLanesPerSM is load/store unit throughput per SM per cycle.
	LSLanesPerSM int
	// SFULanesPerSM is special-function (exp, rsqrt, ...) throughput.
	SFULanesPerSM int
	// IssueLanesPerSM is the aggregate issue bandwidth in thread-instructions
	// per SM per cycle (4 schedulers x 32 lanes on Volta).
	IssueLanesPerSM int
	// MaxThreadsPerSM bounds resident threads used for occupancy/latency
	// hiding estimates.
	MaxThreadsPerSM int

	// L1SizeKB, L1LineBytes, L1Ways describe the per-SM L1 data cache. The
	// model simulates a single L1 of this geometry per kernel (cold at kernel
	// start), which approximates per-SM private caches under the usual
	// between-kernel invalidation.
	L1SizeKB    int
	L1LineBytes int
	L1Ways      int

	// L2SizeKB, L2LineBytes, L2Ways describe the shared L2, kept warm across
	// kernel launches within a device lifetime.
	L2SizeKB    int
	L2LineBytes int
	L2Ways      int

	// DRAMBandwidthGBps is HBM2 bandwidth; L2BandwidthGBps the L2 bandwidth.
	DRAMBandwidthGBps float64
	L2BandwidthGBps   float64

	// Load latencies in cycles for each level of the hierarchy.
	L1LatencyCycles   float64
	L2LatencyCycles   float64
	DRAMLatencyCycles float64

	// ICacheL0Bytes and ICacheL1Bytes describe the instruction caches used by
	// the fetch-stall model.
	ICacheL0Bytes int
	ICacheL1Bytes int

	// LaunchOverheadUS is the fixed host-side cost per kernel launch in
	// microseconds (driver + framework dispatch). Load-bearing for workloads
	// that launch many tiny kernels (Tree-LSTM).
	LaunchOverheadUS float64

	// PCIeBandwidthGBps bounds host-to-device transfers.
	PCIeBandwidthGBps float64

	// MaxSampledWarps caps the number of warp-level memory transactions the
	// cache simulator replays per kernel; longer streams are stride-sampled
	// and the counters rescaled. Lower is faster and less precise.
	MaxSampledWarps int

	// HBMBytes is the device-memory capacity enforced by the simulated
	// caching allocator. Zero means DefaultHBMBytes. Workloads whose
	// footprint exceeds the budget fail with a simulated OOM.
	HBMBytes int64

	// HalfPrecision, when true, halves the storage footprint of fp tensors
	// (the paper's future-work fp16 mode): access streams shrink and fp16
	// math uses doubled-rate lanes.
	HalfPrecision bool

	// BypassL1 routes every memory transaction directly to L2, modeling the
	// cache-bypass mitigation the paper suggests for workloads whose L1 hit
	// rates are too low to pay for the lookup.
	BypassL1 bool

	// Obs is the run the device's allocator and engine record into; New
	// binds obs.Process() (off unless e2ebench switched it on) for nil.
	Obs *obs.Run
}

// V100 returns the model of the NVIDIA Tesla V100-SXM2-16GB used in the
// paper's single-GPU experiments (80 SMs, 14 TFLOPS fp32 peak, 128 KB
// L1/shared per SM, 6 MB L2, 900 GB/s HBM2).
func V100() Config {
	return Config{
		Name:              "Tesla V100-SXM2-16GB",
		NumSMs:            80,
		ClockGHz:          1.38,
		FP32LanesPerSM:    64,
		INT32LanesPerSM:   64,
		LSLanesPerSM:      32,
		SFULanesPerSM:     16,
		IssueLanesPerSM:   128,
		MaxThreadsPerSM:   2048,
		L1SizeKB:          128,
		L1LineBytes:       128,
		L1Ways:            4,
		L2SizeKB:          6144,
		L2LineBytes:       64,
		L2Ways:            16,
		DRAMBandwidthGBps: 900,
		L2BandwidthGBps:   2150,
		L1LatencyCycles:   28,
		L2LatencyCycles:   193,
		DRAMLatencyCycles: 1029,
		ICacheL0Bytes:     12 << 10,
		ICacheL1Bytes:     128 << 10,
		LaunchOverheadUS:  2.5,
		PCIeBandwidthGBps: 12,
		MaxSampledWarps:   1 << 14,
		HBMBytes:          16 << 30,
	}
}

// P100 returns a Tesla P100 (Pascal) model: the prior generation, with
// fewer SMs, smaller caches, and lower bandwidth — used for sensitivity
// studies of the characterization across GPU generations.
func P100() Config {
	c := V100()
	c.Name = "Tesla P100-SXM2-16GB"
	c.NumSMs = 56
	c.ClockGHz = 1.30
	c.L1SizeKB = 24 // Pascal unified L1/tex is far smaller
	c.L2SizeKB = 4096
	c.DRAMBandwidthGBps = 732
	c.L2BandwidthGBps = 1600
	c.DRAMLatencyCycles = 1100
	return c
}

// A100 returns an A100-SXM4-40GB (Ampere) model: more SMs, a much larger
// L2, and nearly double the memory bandwidth.
func A100() Config {
	c := V100()
	c.Name = "A100-SXM4-40GB"
	c.NumSMs = 108
	c.ClockGHz = 1.41
	c.L1SizeKB = 192
	c.L2SizeKB = 40960
	c.DRAMBandwidthGBps = 1555
	c.L2BandwidthGBps = 4500
	c.DRAMLatencyCycles = 900
	c.HBMBytes = 40 << 30
	return c
}

// H100 returns an H100-SXM5-80GB (Hopper) model: the widest SMs of the
// family (128 fp32 lanes each), a 50 MB L2 and HBM3 at 3.35 TB/s — the
// heterogeneous-fleet scenarios' fast tier, after Ju et al.'s argument that
// GNN characterization should span device generations rather than pin
// itself to the V100.
func H100() Config {
	c := V100()
	c.Name = "H100-SXM5-80GB"
	c.NumSMs = 132
	c.ClockGHz = 1.83
	c.FP32LanesPerSM = 128
	c.IssueLanesPerSM = 256
	c.L1SizeKB = 256
	c.L2SizeKB = 51200
	c.DRAMBandwidthGBps = 3350
	c.L2BandwidthGBps = 7000
	c.DRAMLatencyCycles = 800
	c.PCIeBandwidthGBps = 55 // PCIe Gen5 x16
	c.HBMBytes = 80 << 30
	return c
}

// Preset returns a named device configuration ("v100", "p100", "a100",
// "h100").
func Preset(name string) (Config, error) {
	switch name {
	case "", "v100":
		return V100(), nil
	case "p100":
		return P100(), nil
	case "a100":
		return A100(), nil
	case "h100":
		return H100(), nil
	}
	return Config{}, errConfig("unknown GPU preset " + name)
}

// PresetNames lists the selectable device presets in generation order.
func PresetNames() []string { return []string{"p100", "v100", "a100", "h100"} }

// PeakGFLOPS returns the theoretical fp32 peak in GFLOPS (FMA counts as two
// floating-point operations).
func (c Config) PeakGFLOPS() float64 {
	return 2 * float64(c.NumSMs) * float64(c.FP32LanesPerSM) * c.ClockGHz
}

// ClockHz returns the SM clock in Hz.
func (c Config) ClockHz() float64 { return c.ClockGHz * 1e9 }

// dramBytesPerCycle converts DRAM bandwidth into bytes per SM-clock cycle.
func (c Config) dramBytesPerCycle() float64 {
	return c.DRAMBandwidthGBps * 1e9 / c.ClockHz()
}

// l2BytesPerCycle converts L2 bandwidth into bytes per SM-clock cycle.
func (c Config) l2BytesPerCycle() float64 {
	return c.L2BandwidthGBps * 1e9 / c.ClockHz()
}

// Validate reports a non-nil error when the configuration is internally
// inconsistent (zero sizes, non-power-of-two geometry, missing clocks).
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return errConfig("NumSMs must be positive")
	case c.ClockGHz <= 0:
		return errConfig("ClockGHz must be positive")
	case c.L1SizeKB <= 0 || c.L2SizeKB <= 0:
		return errConfig("cache sizes must be positive")
	case c.L1LineBytes <= 0 || c.L2LineBytes <= 0:
		return errConfig("cache line sizes must be positive")
	case c.L1LineBytes&(c.L1LineBytes-1) != 0 || c.L2LineBytes&(c.L2LineBytes-1) != 0:
		return errConfig("cache line sizes must be powers of two")
	case c.L1Ways <= 0 || c.L2Ways <= 0:
		return errConfig("cache associativity must be positive")
	case c.DRAMBandwidthGBps <= 0 || c.L2BandwidthGBps <= 0:
		return errConfig("bandwidths must be positive")
	case c.IssueLanesPerSM <= 0:
		return errConfig("IssueLanesPerSM must be positive")
	case c.MaxSampledWarps <= 0:
		return errConfig("MaxSampledWarps must be positive")
	case c.HBMBytes < 0:
		return errConfig("HBMBytes must be non-negative")
	}
	return nil
}

type errConfig string

func (e errConfig) Error() string { return "gpu: invalid config: " + string(e) }
