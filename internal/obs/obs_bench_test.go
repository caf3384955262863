// Overhead guard for the observability layer: with no run (the default),
// instrumented hot paths must not allocate at all beyond what the
// uninstrumented computation allocates, and the unobserved train step must
// cost the same as before instrumentation existed (benchmarked).
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
	var off *obs.Run // nil handles throughout
	c := off.Counter("benchtest.counter")
	g := off.Gauge("benchtest.gauge")
	h := off.Histogram("benchtest.hist", obs.DurationBuckets())
	tr := off.Track("benchtest")

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

	// Recording into a run is atomics-only: also allocation-free.
	run := obs.NewRun()
	c, g, h = run.Counter("benchtest.counter"), run.Gauge("benchtest.gauge"), run.Histogram("benchtest.hist", obs.DurationBuckets())
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
// attribution histograms (resolved by each engine from its run, one per
// gpu.OpClass) record alloc-free with and without a run — the engine keeps
// them in an array indexed by class, so no metric-name strings are built
// either.
func TestOpClassHistogramsZeroAllocsWhenDisabled(t *testing.T) {
	hists := func(run *obs.Run) []*obs.Histogram {
		hs := make([]*obs.Histogram, 0, gpu.NumOpClasses)
		for _, c := range gpu.AllOpClasses() {
			hs = append(hs, run.Histogram("ops.class."+c.String()+".host_nanos", obs.DurationBuckets()))
		}
		return hs
	}
	off := hists(nil)
	if n := testing.AllocsPerRun(200, func() {
		for _, h := range off {
			h.Observe(1234)
		}
	}); n != 0 {
		t.Fatalf("disabled per-class histograms allocate: %.1f allocs/op", n)
	}
	on := hists(obs.NewRun())
	if n := testing.AllocsPerRun(200, func() {
		for _, h := range on {
			h.Observe(1234)
		}
	}); n != 0 {
		t.Fatalf("enabled per-class histograms allocate: %.1f allocs/op", n)
	}
}

// TestConcurrentEngineEpochsRace trains independent replicas on separate
// goroutines recording into one run: each engine records spans and
// per-class attribution into the shared run concurrently. Run under -race
// (CI does), this pins the lock-free recording paths.
func TestConcurrentEngineEpochsRace(t *testing.T) {
	t.Parallel()
	run := obs.NewRun()
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
			cfg.Obs = run
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
	for _, h := range run.Snapshot().Histograms {
		if h.Name == "ops.class.GEMM.host_nanos" && h.Count > 0 {
			return
		}
	}
	t.Fatal("concurrent epochs recorded no GEMM attribution")
}

// benchWorkload builds an ARGA instance recording into run (nil: none) on
// a device replaying 64 sampled warps, so the training step runs the full
// host numerics path (the part obs instruments) with as little
// simulated-device modeling as an engine with a run can have.
func benchWorkload(b *testing.B, run *obs.Run) models.Workload {
	b.Helper()
	cfg := gpu.V100()
	cfg.MaxSampledWarps = 64
	cfg.Obs = run
	env := models.NewEnv(ops.NewWith(gpu.New(cfg), backend.Default()), 1)
	return models.NewARGA(env, datasets.NewCitation(env.RNG, "cora"), models.ARGAConfig{})
}

func BenchmarkTrainEpochObsDisabled(b *testing.B) {
	w := benchWorkload(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.TrainEpoch()
	}
}

func BenchmarkTrainEpochObsEnabled(b *testing.B) {
	w := benchWorkload(b, obs.NewRun())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.TrainEpoch()
	}
}
