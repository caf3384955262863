package gpu

import (
	"math"
	"strings"
	"testing"

	"gnnmark/internal/vmem"
)

// TestCopyH2DStatsExact pins the transfer accounting: the modeled time is
// the fixed PCIe latency plus bytes over the configured bandwidth, the
// returned stats echo the call, and TransferSeconds accumulates across
// copies.
func TestCopyH2DStatsExact(t *testing.T) {
	cfg := testConfig()
	d := New(cfg)
	const bytes = 4 << 20
	ts := d.CopyH2D("features", bytes, 0.25)
	want := 10e-6 + float64(bytes)/(cfg.PCIeBandwidthGBps*1e9)
	if math.Abs(ts.Seconds-want) > 1e-12 {
		t.Fatalf("transfer seconds = %g, want %g", ts.Seconds, want)
	}
	if ts.Name != "features" || ts.Bytes != bytes || ts.ZeroFraction != 0.25 || !ts.HostToDevice {
		t.Fatalf("stats = %+v", ts)
	}
	if got := d.TransferSeconds(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TransferSeconds = %g, want %g", got, want)
	}
	d.CopyH2D("labels", bytes, 0)
	if got := d.TransferSeconds(); math.Abs(got-2*want) > 1e-12 {
		t.Fatalf("TransferSeconds after 2 copies = %g, want %g", got, 2*want)
	}
}

// TestSubscribeTransfersFanOut: every registered listener sees every
// transfer, in issue order.
func TestSubscribeTransfersFanOut(t *testing.T) {
	d := New(testConfig())
	var a, b []string
	d.SubscribeTransfers(func(ts TransferStats) { a = append(a, ts.Name) })
	d.SubscribeTransfers(func(ts TransferStats) { b = append(b, ts.Name) })
	d.CopyH2D("x", 1024, 0)
	d.CopyH2D("y", 2048, 0.5)
	d.CopyH2D("z", 512, 1)
	want := []string{"x", "y", "z"}
	for _, got := range [][]string{a, b} {
		if len(got) != len(want) {
			t.Fatalf("listener saw %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("listener saw %v, want %v", got, want)
			}
		}
	}
}

// TestResetClockClearsTransferSeconds: ResetClock zeroes transfer time
// along with kernel time and counts, but keeps memory state.
func TestResetClockClearsTransferSeconds(t *testing.T) {
	d := New(testConfig())
	d.CopyH2D("x", 1<<20, 0)
	d.Launch(&Kernel{Name: "k", Class: OpOther, Threads: 32, Mix: InstrMix{Int32: 1024}})
	if d.TransferSeconds() <= 0 {
		t.Fatal("transfer time must accrue before reset")
	}
	d.AllocBlock(4096, "keep")
	live := d.MemStats().Live
	d.ResetClock()
	if d.TransferSeconds() != 0 {
		t.Fatalf("TransferSeconds = %g after ResetClock", d.TransferSeconds())
	}
	if d.ElapsedSeconds() != 0 || d.KernelCount() != 0 {
		t.Fatal("ResetClock must zero elapsed time and kernel count")
	}
	if got := d.MemStats().Live; got != live {
		t.Fatalf("ResetClock must not touch device memory: live %d, want %d", got, live)
	}
}

// TestAllocBlockOOMPanicsAtLaunch: an over-budget allocation parks the OOM
// and hands back a placeholder; the next Launch raises it with the kernel's
// name in the report, and the placeholder's Free is a no-op.
func TestAllocBlockOOMPanicsAtLaunch(t *testing.T) {
	for _, launch := range []func(*Device, *Kernel){
		func(d *Device, k *Kernel) { d.Launch(k) },
		func(d *Device, k *Kernel) { d.Submit(k, nil) },
	} {
		cfg := testConfig()
		cfg.HBMBytes = 4 << 20
		d := New(cfg)
		b := d.AllocBlock(8<<20, "huge.tensor")
		if b == nil {
			t.Fatal("AllocBlock must return a placeholder on OOM")
		}
		d.Free(b) // placeholder: no-op
		err := Guard(func() {
			launch(d, &Kernel{Name: "doomed_kernel", Class: OpOther, Threads: 32, Mix: InstrMix{Int32: 32}})
		})
		oom, ok := err.(*vmem.OOMError)
		if !ok {
			t.Fatalf("Launch must raise a *vmem.OOMError, got %v", err)
		}
		if oom.Kernel != "doomed_kernel" {
			t.Fatalf("OOM names kernel %q, want doomed_kernel", oom.Kernel)
		}
		if !strings.Contains(oom.Error(), "huge.tensor") {
			t.Fatalf("OOM report missing failing tag:\n%s", oom.Error())
		}
	}
}
