package gpu

import (
	"errors"
	"math"
	"testing"

	"gnnmark/internal/fault"
)

func healthKernel(name string, threads int) *Kernel {
	return &Kernel{
		Name:    name,
		Class:   OpSpMM,
		Threads: threads,
		// Heavy enough that execution time dominates launch overhead, so a
		// stretched kernel visibly stretches the device clock.
		Mix:   InstrMix{Int32: 960_000, Fp32: 3_200_000, Load: 960_000, Store: 480_000, Control: 120_000},
		Flops: 6_400_000,
		Iops:  960_000,
		Accesses: []Access{
			{Kind: LoadAccess, Base: 0, ElemBytes: 4, Count: threads, Stride: 1},
			{Kind: StoreAccess, Base: 1 << 21, ElemBytes: 4, Count: threads, Stride: 1},
		},
		CodeBytes: 4096,
		DepChain:  2.0,
	}
}

// TestThermalThrottleScalesKernelTime: a thermal throttle stretches every
// kernel's execution time by its factor without perturbing a single
// performance counter — the clock clamps, the work does not change.
func TestThermalThrottleScalesKernelTime(t *testing.T) {
	const factor = 1.5
	healthy := New(V100())
	hot := New(V100())
	hot.AttachHealth(fault.NewMonitor([]fault.Event{
		{Slot: 0, Type: fault.ThermalThrottle, Factor: factor, At: 0},
	}, true))

	for i := 0; i < 5; i++ {
		k := healthKernel("spmm", 512+64*i)
		a := healthy.Launch(healthKernel("spmm", 512+64*i))
		b := hot.Launch(k)
		if r := b.Seconds / a.Seconds; math.Abs(r-factor) > 1e-12 {
			t.Fatalf("launch %d: throttled/healthy Seconds ratio %v, want %v", i, r, factor)
		}
		// Numerics and counters must be bitwise identical: the throttle is
		// pure timing.
		a.Seconds, b.Seconds = 0, 0
		a.Launch, b.Launch = 0, 0
		if a != b {
			t.Fatalf("launch %d: counters diverged under throttle:\n%+v\nvs\n%+v", i, a, b)
		}
	}
	if hot.ElapsedSeconds() <= healthy.ElapsedSeconds() {
		t.Fatalf("throttled elapsed %v not strictly greater than healthy %v",
			hot.ElapsedSeconds(), healthy.ElapsedSeconds())
	}
}

// TestThrottleScalesTransferTime: thermal throttle stretches host-device
// copy time too (the copy engines share the clamped clock domain), and
// NVLink degradation compounds on top for transfers only.
func TestThrottleScalesTransferTime(t *testing.T) {
	healthy := New(V100())
	hot := New(V100())
	hot.AttachHealth(fault.NewMonitor([]fault.Event{
		{Slot: 0, Type: fault.ThermalThrottle, Factor: 1.5, At: 0},
		{Slot: 0, Type: fault.NVLinkDegrade, Factor: 2.0, At: 0},
	}, true))

	const bytes = 64 << 20
	a := healthy.CopyH2D("feat", bytes, 0.5)
	b := hot.CopyH2D("feat", bytes, 0.5)
	if r := b.Seconds / a.Seconds; math.Abs(r-3.0) > 1e-12 {
		t.Fatalf("transfer ratio %v, want 3.0 (thermal 1.5 x link 2.0)", r)
	}
	if a.Bytes != b.Bytes || a.ZeroFraction != b.ZeroFraction {
		t.Fatal("transfer payload stats perturbed by throttle")
	}
	if got := hot.TransferCost(bytes); math.Abs(got/healthy.CopyCost(bytes)-3.0) > 1e-12 {
		t.Fatalf("TransferCost not derated: %v", got)
	}
	if hot.kernelMult != 1.5 || hot.TransferMult() != 3.0 {
		t.Fatalf("cached multipliers k=%v x=%v", hot.kernelMult, hot.TransferMult())
	}
}

// TestThrottleActivatesMidRun: a throttle scheduled mid-run leaves earlier
// launches untouched and stretches later ones — the poll point is the
// device clock, so activation is deterministic in simulated time.
func TestThrottleActivatesMidRun(t *testing.T) {
	healthy := New(V100())
	hot := New(V100())
	// Time one healthy launch to place the event between launch 1 and 2.
	probe := New(V100())
	oneLaunch := probe.Launch(healthKernel("probe", 512))
	gap := oneLaunch.Seconds + oneLaunch.Launch

	// Health is polled at launch time, so the event must land between the
	// first poll (clock 0) and the second (clock = gap).
	hot.AttachHealth(fault.NewMonitor([]fault.Event{
		{Slot: 0, Type: fault.ThermalThrottle, Factor: 2.0, At: gap * 0.5},
	}, true))

	first := hot.Launch(healthKernel("k", 512))
	ref := healthy.Launch(healthKernel("k", 512))
	if first.Seconds != ref.Seconds {
		t.Fatalf("pre-event launch already throttled: %v vs %v", first.Seconds, ref.Seconds)
	}
	second := hot.Launch(healthKernel("k", 512))
	ref2 := healthy.Launch(healthKernel("k", 512))
	if r := second.Seconds / ref2.Seconds; math.Abs(r-2.0) > 1e-12 {
		t.Fatalf("post-event launch ratio %v, want 2.0", r)
	}
}

// TestFatalEventPanicsAtLaunch: in immediate mode a due fatal event is
// raised at the next Launch as a *fault.FatalError naming the event — the
// parked OOM protocol, reused for health.
func TestFatalEventPanicsAtLaunch(t *testing.T) {
	dev := New(V100())
	dev.AttachHealth(fault.NewMonitor([]fault.Event{
		{Slot: 3, Type: fault.XID, Code: 79, Msg: "GPU has fallen off the bus", At: 0},
	}, false))

	err := Guard(func() { dev.Launch(healthKernel("doomed", 256)) })
	if err == nil {
		t.Fatal("Launch did not raise a due fatal event")
	}
	var fe *fault.FatalError
	if !errors.As(err, &fe) {
		t.Fatalf("raised error %v is not a *fault.FatalError", err)
	}
	if fe.Event.Type != fault.XID || fe.Event.Code != 79 || fe.Event.Slot != 3 {
		t.Fatalf("fatal error lost event identity: %+v", fe.Event)
	}
}

// TestDetachHealthRestoresHealthy: detaching the plane resets multipliers.
func TestDetachHealthRestoresHealthy(t *testing.T) {
	dev := New(V100())
	dev.AttachHealth(fault.NewMonitor([]fault.Event{
		{Slot: 0, Type: fault.ThermalThrottle, Factor: 1.9, At: 0},
	}, true))
	dev.Launch(healthKernel("k", 256))
	if dev.kernelMult != 1.9 {
		t.Fatalf("throttle not applied: %v", dev.kernelMult)
	}
	dev.AttachHealth(nil)
	if dev.kernelMult != 1 || dev.TransferMult() != 1 {
		t.Fatal("detach did not restore healthy multipliers")
	}
}
