package gpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// launchable returns a copy of k, with its own access array, that sets every
// launch parameter, varied by i, so that a field Submit failed to copy would
// change the kernel's stats.
func launchable(k *Kernel, i int) *Kernel {
	c := *k
	c.Name = fmt.Sprintf("%s#%d", k.Name, i)
	c.Accesses = slices.Clone(k.Accesses)
	c.Class = OpClass(i % NumOpClasses)
	c.Threads = 32 + 97*i
	c.Mix = InstrMix{Int32: uint64(1000 + i), Fp32: uint64(3000 * i), Fp16: uint64(i), Load: 500, Store: 200, Control: 100, Special: uint64(i % 7)}
	c.Flops, c.Iops = uint64(6000*i), uint64(1000+i)
	c.CodeBytes = 256 << (i % 8)
	c.DepChain = 1 + float64(i%5)/2
	c.Efficiency = float64(1+i%4) / 4
	c.Barriers = i % 3
	return &c
}

// submitMatchesLaunch runs one kernel sequence — replayKernels' strides and
// gathers, three times as many kernels as the ring holds — through Submit on
// one device and Launch on its twin, reading the queued device's clock at
// uneven points and scribbling over each kernel once it is submitted. It
// describes the first difference in the listener stream, the then stream,
// the clocks or the caches, or returns "".
func submitMatchesLaunch(seed int64) string {
	cfg := V100()
	cfg.MaxSampledWarps = 512
	queued, direct := New(cfg), New(cfg)
	var heard, thens, want []KernelStats
	queued.Subscribe(func(ks KernelStats) { heard = append(heard, ks) })
	direct.Subscribe(func(ks KernelStats) { want = append(want, ks) })
	order := ""
	then := func(ks KernelStats) {
		if len(thens) >= len(heard) && order == "" {
			order = fmt.Sprintf("then ran before the listeners for kernel %d", len(thens))
		}
		thens = append(thens, ks)
	}
	rng := rand.New(rand.NewSource(seed))
	kernels := replayKernels(rng, 1024+5)
	for i := 0; i < 3*queueSlots; i++ {
		k := launchable(kernels[i%len(kernels)], i)
		queued.Submit(k, then)
		direct.Launch(launchable(kernels[i%len(kernels)], i))
		// The host owns its kernel again as soon as Submit returns.
		clear(k.Accesses)
		*k = Kernel{Name: "scribbled"}
		if rng.Intn(16) == 0 {
			if g, w := queued.ElapsedSeconds(), direct.ElapsedSeconds(); g != w {
				return fmt.Sprintf("after kernel %d the clock reads %v, Launch's %v", i, g, w)
			}
		}
	}
	if g, w := queued.KernelCount(), direct.KernelCount(); g != w {
		return fmt.Sprintf("%d kernels counted, Launch's %d", g, w)
	}
	if order != "" {
		return order
	}
	for i := range want {
		if i >= len(heard) || !reflect.DeepEqual(heard[i], want[i]) {
			return fmt.Sprintf("listeners heard kernel %d differently", i)
		}
		if i >= len(thens) || !reflect.DeepEqual(thens[i], want[i]) {
			return fmt.Sprintf("then got kernel %d differently", i)
		}
	}
	if len(heard) != len(want) || len(thens) != len(want) {
		return fmt.Sprintf("%d stats heard and %d handed to then, want %d", len(heard), len(thens), len(want))
	}
	if !reflect.DeepEqual(queued.l2, direct.l2) || !reflect.DeepEqual(queued.scaledL1, direct.scaledL1) {
		return "the caches differ"
	}
	return ""
}

// TestSubmitMatchesLaunch: Submit hands listeners, then-callbacks and clock
// readers exactly what Launch does, in launch order, while the host reuses
// its kernels — on four devices driven at once, so the pool's workers serve
// them side by side (run it under -race).
func TestSubmitMatchesLaunch(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if diff := submitMatchesLaunch(int64(g)); diff != "" {
				t.Errorf("device %d: %s", g, diff)
			}
		}()
	}
	wg.Wait()
}

// TestSubmitDoesNotAllocate: once a device's ring exists, queueing a kernel
// — waking a worker, syncing when the ring is full — allocates nothing.
func TestSubmitDoesNotAllocate(t *testing.T) {
	d := New(testConfig())
	k := stridedKernel(1 << 12)
	for i := 0; i < queueSlots; i++ {
		d.Submit(k, nil)
	}
	d.Sync()
	if allocs := testing.AllocsPerRun(4*queueSlots, func() { d.Submit(k, nil) }); allocs != 0 {
		t.Fatalf("Submit allocated %v times per kernel, want 0", allocs)
	}
}
