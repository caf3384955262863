package profiler

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"gnnmark/internal/gpu"
)

func testDevice() (*gpu.Device, *Profiler) {
	cfg := gpu.V100()
	cfg.MaxSampledWarps = 1 << 10
	dev := gpu.New(cfg)
	return dev, Attach(dev)
}

// launchSample queues a kernel the way the op engine does: the profiler's
// readers must sync the device to see it.
func launchSample(dev *gpu.Device, class gpu.OpClass, fp, in uint64) {
	dev.Submit(&gpu.Kernel{
		Name:  "k-" + class.String(),
		Class: class, Threads: 1 << 14,
		Mix:   gpu.InstrMix{Fp32: fp, Int32: in, Load: (fp + in) / 4},
		Flops: 2 * fp, Iops: in,
		Accesses: []gpu.Access{{
			Kind: gpu.LoadAccess, Base: dev.AllocBlock(1<<20, "scratch").Addr(), ElemBytes: 4,
			Count: 1 << 14, Stride: 1,
		}},
	}, nil)
}

func TestProfilerAggregatesPerClass(t *testing.T) {
	dev, p := testDevice()
	launchSample(dev, gpu.OpGEMM, 1<<22, 1<<20)
	launchSample(dev, gpu.OpGEMM, 1<<22, 1<<20)
	launchSample(dev, gpu.OpScatter, 1<<16, 1<<22)

	g := p.Class(gpu.OpGEMM)
	if g.Kernels != 2 {
		t.Fatalf("GEMM kernels = %d", g.Kernels)
	}
	if g.Flops != 2*(1<<23) {
		t.Fatalf("GEMM flops = %d", g.Flops)
	}
	s := p.Class(gpu.OpScatter)
	if s.Kernels != 1 || s.Iops != 1<<22 {
		t.Fatalf("scatter stats wrong: %+v", s)
	}
	if p.Class(gpu.OpSort).Kernels != 0 {
		t.Fatal("untouched class must be empty")
	}
}

func TestSnapshotSharesSumToOne(t *testing.T) {
	dev, p := testDevice()
	launchSample(dev, gpu.OpGEMM, 1<<22, 1<<20)
	launchSample(dev, gpu.OpElementWise, 1<<18, 1<<19)
	launchSample(dev, gpu.OpReduction, 1<<16, 1<<18)

	r := p.Snapshot()
	var sum float64
	for _, v := range r.TimeShare {
		if v < 0 {
			t.Fatal("negative time share")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("time shares sum to %g", sum)
	}
	stalls := r.Stalls.MemoryDep + r.Stalls.ExecDep + r.Stalls.InstrFetch + r.Stalls.Sync + r.Stalls.Other
	if math.Abs(stalls-1) > 1e-9 {
		t.Fatalf("stall shares sum to %g", stalls)
	}
	// launchSample's mix is fp + in + (fp+in)/4 instructions.
	var fp, in, total float64
	for _, k := range [][2]float64{{1 << 22, 1 << 20}, {1 << 18, 1 << 19}, {1 << 16, 1 << 18}} {
		fp, in, total = fp+k[0], in+k[1], total+k[0]+k[1]+math.Floor((k[0]+k[1])/4)
	}
	if math.Abs(r.IntShare-in/total) > 1e-9 || math.Abs(r.FpShare-fp/total) > 1e-9 ||
		math.Abs(r.IntShare+r.FpShare+r.OtherShare-1) > 1e-9 {
		t.Fatalf("mix shares int %g fp %g other %g, want %g %g and a sum of 1",
			r.IntShare, r.FpShare, r.OtherShare, in/total, fp/total)
	}
	if r.GFLOPS <= 0 || r.GIOPS <= 0 || r.IPC <= 0 {
		t.Fatalf("rates must be positive: %+v", r)
	}
	if r.Kernels != 3 {
		t.Fatalf("kernels = %d", r.Kernels)
	}
}

func TestSnapshotEmptyIsZero(t *testing.T) {
	_, p := testDevice()
	r := p.Snapshot()
	if r.KernelSeconds != 0 || r.GFLOPS != 0 || r.Kernels != 0 {
		t.Fatalf("empty snapshot non-zero: %+v", r)
	}
}

func TestTransferSparsityTracking(t *testing.T) {
	dev, p := testDevice()
	dev.CopyH2D("a", 1000, 0.5)
	p.NextIteration()
	dev.CopyH2D("b", 3000, 0.1)
	dev.CopyH2D("c", 1000, 0.9)
	r := p.Snapshot()
	if r.H2DBytes != 5000 {
		t.Fatalf("H2D bytes = %d", r.H2DBytes)
	}
	want := (0.5*1000 + 0.1*3000 + 0.9*1000) / 5000
	if math.Abs(r.AvgSparsity-want) > 1e-9 {
		t.Fatalf("avg sparsity = %g, want %g", r.AvgSparsity, want)
	}

	tl := p.SparsityTimeline()
	if len(tl) != 2 {
		t.Fatalf("timeline length %d", len(tl))
	}
	if math.Abs(tl[0]-0.5) > 1e-9 {
		t.Fatalf("iter 0 sparsity %g", tl[0])
	}
	want1 := (0.1*3000 + 0.9*1000) / 4000
	if math.Abs(tl[1]-want1) > 1e-9 {
		t.Fatalf("iter 1 sparsity %g", tl[1])
	}
}

func TestEpochMarks(t *testing.T) {
	dev, p := testDevice()
	launchSample(dev, gpu.OpGEMM, 1<<22, 1<<20)
	p.MarkEpoch()
	launchSample(dev, gpu.OpGEMM, 1<<22, 1<<20)
	launchSample(dev, gpu.OpGEMM, 1<<22, 1<<20)
	p.MarkEpoch()
	es := p.EpochSeconds()
	if len(es) != 2 {
		t.Fatalf("epochs = %d", len(es))
	}
	if es[0] <= 0 || es[1] <= 0 {
		t.Fatal("epoch durations must be positive")
	}
	// Second epoch did twice the work.
	if es[1] < es[0]*1.5 {
		t.Fatalf("epoch times %v do not reflect work", es)
	}
}

func TestGraphOpAndGEMMShares(t *testing.T) {
	dev, p := testDevice()
	launchSample(dev, gpu.OpGEMM, 1<<22, 1<<20)
	launchSample(dev, gpu.OpScatter, 1<<16, 1<<22)
	launchSample(dev, gpu.OpSort, 1<<16, 1<<22)
	r := p.Snapshot()
	g := r.GraphOpTimeShare()
	if g <= 0 || g >= 1 {
		t.Fatalf("graph op share %g", g)
	}
	total := g + r.GEMMSpMMTimeShare()
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares should cover all classes here: %g", total)
	}
}

func TestResetClears(t *testing.T) {
	dev, p := testDevice()
	launchSample(dev, gpu.OpGEMM, 1<<20, 1<<18)
	dev.CopyH2D("x", 100, 0.5)
	p.MarkEpoch()
	p.Reset()
	r := p.Snapshot()
	if r.Kernels != 0 || r.H2DBytes != 0 || len(p.EpochSeconds()) != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestReportString(t *testing.T) {
	dev, p := testDevice()
	launchSample(dev, gpu.OpGEMM, 1<<22, 1<<20)
	s := p.Snapshot().String()
	for _, frag := range []string{"GFLOPS", "L1=", "mem=", "GEMM="} {
		if !strings.Contains(s, frag) {
			t.Fatalf("report missing %q:\n%s", frag, s)
		}
	}
}

// TestClassStatsAddCoversEveryField gives every numeric leaf of a ClassStats
// (nested structs included) a distinct value and adds the struct to itself:
// each leaf must double, so a field added to the struct and forgotten in Add
// fails here rather than silently reading zero in the suite aggregate.
func TestClassStatsAddCoversEveryField(t *testing.T) {
	var leaves []reflect.Value
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Float64, reflect.Uint64:
			leaves = append(leaves, v)
		default:
			t.Fatalf("a %s field: teach this test (and Add) the new kind", v.Kind())
		}
	}
	var x, sum ClassStats
	walk(reflect.ValueOf(&x).Elem())
	for i, leaf := range leaves {
		leaf.Set(reflect.ValueOf(i + 1).Convert(leaf.Type()))
	}
	sum = x
	sum.Add(x)
	n := len(leaves)
	leaves = nil
	walk(reflect.ValueOf(&sum).Elem())
	for i, leaf := range leaves {
		if got := leaf.Convert(reflect.TypeOf(0.0)).Float(); got != float64(2*(i+1)) {
			t.Errorf("leaf %d of ClassStats is %v after x.Add(x) with x = %d: Add drops the field", i, got, i+1)
		}
	}
	if n < 20 {
		t.Fatalf("walked %d leaves, expected the 20-odd counters of ClassStats", n)
	}
}
