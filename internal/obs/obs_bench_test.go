// Overhead guard for the observability layer: with obs disabled (the
// default), instrumented hot paths must not allocate at all beyond what
// the uninstrumented computation allocates, and the disabled train step
// must cost the same as before instrumentation existed (benchmarked).
// External test package: obs cannot import ops/models itself.
package obs_test

import (
	"sync"
	"testing"

	"gnnmark/internal/backend"
	"gnnmark/internal/datasets"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/obs"
	"gnnmark/internal/ops"
	"gnnmark/internal/tensor"
)

func TestPrimitivesZeroAllocsWhenDisabled(t *testing.T) {
	obs.Disable()
	c := obs.GetCounter("benchtest.counter")
	g := obs.GetGauge("benchtest.gauge")
	h := obs.GetHistogram("benchtest.hist", obs.DurationBuckets())
	tr := obs.NewTrack("benchtest") // nil while disabled

	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		g.Add(1)
		g.SetMax(2)
		h.Observe(17)
		sc := tr.Begin("x", "t")
		tr.Record("y", "t", 0, 1)
		sc.End()
	}); n != 0 {
		t.Fatalf("disabled obs primitives allocate: %.1f allocs/op", n)
	}

	// Enabled metric recording is atomics-only: also allocation-free.
	obs.Enable()
	defer func() {
		obs.Reset()
		obs.Disable()
	}()
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.SetMax(5)
		h.Observe(17)
	}); n != 0 {
		t.Fatalf("enabled metric recording allocates: %.1f allocs/op", n)
	}
}

var escapeSink []*tensor.Tensor

func TestOpPathZeroAllocsWhenDisabled(t *testing.T) {
	obs.Disable()
	be := backend.Default()
	e := ops.NewWith(nil, be) // deviceless: pure host numerics path
	const n, f = 64, 32
	x := tensor.New(n, f)
	bias := tensor.New(f)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}

	instrumented := testing.AllocsPerRun(100, func() {
		e.AddBiasRows(x, bias)
	})
	baseline := testing.AllocsPerRun(100, func() {
		out := tensor.New(n, f)
		// The engine's lowering call site heap-allocates its input list
		// even deviceless (the tensors escape into address bookkeeping);
		// replicate it so the delta isolates obs, not the engine.
		escapeSink = []*tensor.Tensor{x, bias}
		be.AddBiasRows(out.Data(), x.Data(), bias.Data(), n, f)
	})
	if instrumented > baseline {
		t.Fatalf("disabled obs adds allocations to the op path: %.1f vs baseline %.1f allocs/op",
			instrumented, baseline)
	}
}

// TestOpClassHistogramsZeroAllocsWhenDisabled checks the per-op-class
// attribution histograms (registered by internal/ops at init, one per
// gpu.OpClass) record alloc-free on both sides of the gate — the histogram
// array is indexed by class, so no metric-name strings are built either.
func TestOpClassHistogramsZeroAllocsWhenDisabled(t *testing.T) {
	obs.Disable()
	hists := make([]*obs.Histogram, 0, gpu.NumOpClasses)
	for _, c := range gpu.AllOpClasses() {
		hists = append(hists, obs.GetHistogram("ops.class."+c.String()+".host_nanos", obs.DurationBuckets()))
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, h := range hists {
			h.Observe(1234)
		}
	}); n != 0 {
		t.Fatalf("disabled per-class histograms allocate: %.1f allocs/op", n)
	}
	obs.Enable()
	defer func() {
		obs.Reset()
		obs.Disable()
	}()
	if n := testing.AllocsPerRun(200, func() {
		for _, h := range hists {
			h.Observe(1234)
		}
	}); n != 0 {
		t.Fatalf("enabled per-class histograms allocate: %.1f allocs/op", n)
	}
}

// TestConcurrentEngineEpochsRace trains independent replicas on separate
// goroutines with observability enabled: each engine records spans and
// per-class attribution into the shared registry concurrently. Run under
// -race (CI does), this pins the lock-free recording paths.
func TestConcurrentEngineEpochsRace(t *testing.T) {
	obs.Enable()
	defer func() {
		obs.Reset()
		obs.Disable()
	}()
	const replicas = 4
	var wg sync.WaitGroup
	errs := make([]error, replicas)
	for i := 0; i < replicas; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg, err := gpu.Preset("")
			if err != nil {
				errs[rank] = err
				return
			}
			cfg.MaxSampledWarps = 64
			env := models.NewEnv(ops.NewWith(gpu.New(cfg), backend.Default()), int64(rank+1))
			defer env.Close()
			w := models.NewARGA(env, datasets.NewCitation(env.RNG, "cora"), models.ARGAConfig{})
			w.TrainEpoch()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range obs.Default().Snapshot().Histograms {
		if h.Name == "ops.class.GEMM.host_nanos" && h.Count > 0 {
			return
		}
	}
	t.Fatal("concurrent epochs recorded no GEMM attribution")
}

// benchWorkload builds a deviceless ARGA instance: the training step runs
// the full host numerics path (the part obs instruments) without the
// simulated-device modeling, isolating the instrumentation cost.
func benchWorkload(b *testing.B) models.Workload {
	b.Helper()
	env := models.NewEnv(ops.NewWith(nil, backend.Default()), 1)
	return models.NewARGA(env, datasets.NewCitation(env.RNG, "cora"), models.ARGAConfig{})
}

func BenchmarkTrainEpochObsDisabled(b *testing.B) {
	obs.Disable()
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.TrainEpoch()
	}
}

func BenchmarkTrainEpochObsEnabled(b *testing.B) {
	obs.Enable()
	defer func() {
		obs.Reset()
		obs.Disable()
	}()
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.TrainEpoch()
	}
}
