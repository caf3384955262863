package serve

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"gnnmark/internal/backend"
	"gnnmark/internal/datasets"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/nn"
	"gnnmark/internal/obs"
	"gnnmark/internal/ops"
	"gnnmark/internal/tensor"
)

// freezeOf freezes opt's parameters the way every plane does: through the
// training-checkpoint bytes.
func freezeOf(t *testing.T, opt nn.Optimizer) *Weights {
	t.Helper()
	w, err := Freeze(bytes.NewReader(nn.Snapshot(opt)))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// buildServable constructs a workload instance on its own fresh device and
// backend; identical (name, seed) arguments build identical models.
func buildServable(name string, be backend.Backend, seed int64) (models.Servable, *ops.Engine) {
	cfg := gpu.V100()
	cfg.MaxSampledWarps = 512
	e := ops.NewWith(gpu.New(cfg), be)
	env := models.NewEnv(e, seed)
	switch name {
	case "PSAGE":
		return models.NewPSAGE(env, datasets.MovieLens(env.RNG),
			models.PSAGEConfig{Hidden: 16, BatchSize: 8, Batches: 2}), e
	case "ARGA":
		return models.NewARGA(env, datasets.NewCitation(env.RNG, "cora"),
			models.ARGAConfig{Hidden: 16, Embed: 8}), e
	}
	panic("unknown servable " + name)
}

func tensorsEqual(a, b *tensor.Tensor) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i, v := range a.Data() {
		if b.Data()[i] != v {
			return false
		}
	}
	return true
}

// TestFrozenForwardMatchesTraining is the ISSUE equivalence claim: freezing
// a trained model through the checkpoint stream and restoring into a fresh
// replica yields a forward pass bitwise identical to the live training
// engine's, on both backends — and micro-batched results match batch-of-1
// per request on the frozen engine too.
func TestFrozenForwardMatchesTraining(t *testing.T) {
	for _, model := range []string{"PSAGE", "ARGA"} {
		for _, beName := range []string{"serial", "parallel"} {
			t.Run(model+"/"+beName, func(t *testing.T) {
				be, err := backend.New(beName)
				if err != nil {
					t.Fatal(err)
				}
				live, _ := buildServable(model, be, 42)
				live.TrainEpoch() // move weights off their initialization

				w := freezeOf(t, live.Optimizer())
				frozen, _ := buildServable(model, be, 42)
				if err := w.LoadInto(frozen.Params()); err != nil {
					t.Fatal(err)
				}

				ids := []int32{0, 3, 11, int32(live.NumItems() - 1)}
				liveOut := live.ServeEmbed(ids)
				frozenOut := frozen.ServeEmbed(ids)
				if !tensorsEqual(liveOut, frozenOut) {
					t.Fatal("frozen forward differs from training engine forward")
				}
				// Batch-of-1 on the frozen replica matches its row in the
				// micro-batch bitwise.
				for i, id := range ids {
					single := frozen.ServeEmbed([]int32{id})
					for j, v := range single.Row(0) {
						if frozenOut.Row(i)[j] != v {
							t.Fatalf("id %d: micro-batched row differs from batch-of-1", id)
						}
					}
				}
			})
		}
	}
}

// TestBackendsServeIdentically: the numerics-backend contract (bitwise
// identical results) extends to the serving forward pass.
func TestBackendsServeIdentically(t *testing.T) {
	serial, _ := buildServable("PSAGE", backend.NewSerial(), 7)
	parallel, _ := buildServable("PSAGE", backend.NewParallel(), 7)
	ids := []int32{1, 5, 9}
	if !tensorsEqual(serial.ServeEmbed(ids), parallel.ServeEmbed(ids)) {
		t.Fatal("serial and parallel backends served different embeddings")
	}
}

// newPSAGEReplicas builds n frozen-weight PSAGE replicas, each on its own
// device, all initialized from the same snapshot.
func newPSAGEReplicas(t *testing.T, n int, w *Weights) []*Replica {
	t.Helper()
	reps := make([]*Replica, n)
	for r := 0; r < n; r++ {
		m, e := buildServable("PSAGE", backend.NewSerial(), 42)
		if err := w.LoadInto(m.Params()); err != nil {
			t.Fatal(err)
		}
		reps[r] = NewReplica(r, m, e.SimClock)
	}
	return reps
}

// TestMicroBatchingDoublesQPS is the ISSUE acceptance claim: under the same
// saturating open load, micro-batching serves >= 2x the QPS of
// batch-size-1 at an equal-or-better p99 — amortizing per-batch kernel
// launches and copy latencies is the whole point of the batcher.
func TestMicroBatchingDoublesQPS(t *testing.T) {
	frozen, _ := buildServable("PSAGE", backend.NewSerial(), 42)
	w := freezeOf(t, frozen.Optimizer())

	// Calibrate the offered load to the measured batch-of-1 service time so
	// the test tracks the device model instead of hardcoding rates.
	_, d1, err := newPSAGEReplicas(t, 1, w)[0].Serve([]int32{1})
	if err != nil {
		t.Fatal(err)
	}
	rate := 4 / d1 // 4x a single replica's batch-1 capacity
	reqs := OpenArrivals(LoadConfig{Seed: 11, QPS: rate, Duration: 300 * d1, Items: frozen.NumItems()})

	run := func(maxBatch int) Stats {
		reps := newPSAGEReplicas(t, 1, w)
		s := New(Config{
			Endpoint:       "accept",
			MaxBatch:       maxBatch,
			MaxWaitSeconds: d1,
			QueueCap:       8,
		}, reps)
		st, err := s.Run(NewSliceSource(reqs))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	single := run(1)
	batched := run(16)
	t.Logf("batch-1: qps %.0f p99 %.6fs rejected %d; batch-16: qps %.0f p99 %.6fs rejected %d",
		single.QPS, single.P99, single.Rejected, batched.QPS, batched.P99, batched.Rejected)
	if batched.QPS < 2*single.QPS {
		t.Fatalf("micro-batching yields %.0f qps vs %.0f: less than 2x", batched.QPS, single.QPS)
	}
	if batched.P99 > single.P99 {
		t.Fatalf("batched p99 %.6fs exceeds batch-1 p99 %.6fs", batched.P99, single.P99)
	}
}

// TestCacheReducesDeviceTime is the ISSUE acceptance claim for the
// embedding cache: on a Zipf-skewed trace it reports a nonzero hit rate and
// lowers the mean per-request device time.
func TestCacheReducesDeviceTime(t *testing.T) {
	frozen, _ := buildServable("PSAGE", backend.NewSerial(), 42)
	w := freezeOf(t, frozen.Optimizer())
	reqs := OpenArrivals(LoadConfig{Seed: 13, QPS: 2000, Duration: 0.1, Items: frozen.NumItems(), ZipfS: 1.5})

	run := func(cacheRows int) Stats {
		reps := newPSAGEReplicas(t, 1, w)
		s := New(Config{Endpoint: "cache", MaxBatch: 8, MaxWaitSeconds: 0.002, CacheRows: cacheRows}, reps)
		st, err := s.Run(NewSliceSource(reqs))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cold := run(0)
	warm := run(256)
	t.Logf("cold mean device %.2fus; warm mean device %.2fus hit rate %.2f",
		cold.MeanDeviceSeconds*1e6, warm.MeanDeviceSeconds*1e6, warm.HitRate())
	if warm.CacheHits == 0 {
		t.Fatal("no cache hits on a Zipf trace")
	}
	if warm.MeanDeviceSeconds >= cold.MeanDeviceSeconds {
		t.Fatalf("cache did not reduce mean device time: %v vs %v",
			warm.MeanDeviceSeconds, cold.MeanDeviceSeconds)
	}
}

// TestServingOpClassTimeWithinWall: the event loop runs one batch at a time,
// so the host time attributed to op classes across all replicas cannot
// exceed the run's wall. It did before Replica.Serve marked a host
// boundary: each replica's wait for its next batch — most of the run, with
// three replicas taking turns — was charged to that batch's first kernel.
func TestServingOpClassTimeWithinWall(t *testing.T) {
	obs.Enable()
	defer func() {
		obs.Reset()
		obs.Disable()
	}()
	obs.Reset()

	frozen, _ := buildServable("PSAGE", backend.NewSerial(), 42)
	w := freezeOf(t, frozen.Optimizer())
	reps := newPSAGEReplicas(t, 3, w) // engines built while enabled carry a track
	_, d1, err := reps[0].Serve([]int32{1})
	if err != nil {
		t.Fatal(err)
	}
	reqs := OpenArrivals(LoadConfig{Seed: 5, QPS: 2 / d1, Duration: 60 * d1, Items: frozen.NumItems()})

	before := ops.CaptureOpClasses()
	start := obs.Nanos()
	s := New(Config{Endpoint: "opclass", MaxBatch: 2, MaxWaitSeconds: d1 / 2, QueueCap: 64}, reps)
	st, err := s.Run(NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	wall := obs.Nanos() - start
	attributed := ops.CaptureOpClasses().Delta(before).Total()
	if st.Completed == 0 || attributed <= 0 {
		t.Fatalf("nothing served or attributed: completed %d, attributed %d ns", st.Completed, attributed)
	}
	if attributed > wall {
		t.Fatalf("op classes were charged %d ns over a %d ns run: idle replica time is being attributed", attributed, wall)
	}
}

// TestRejectedItemLeavesReplicaFresh: an out-of-range id is a typed error
// raised before the model runs — not an index panic recovered halfway
// through sampling — so the next request finds the engine, the sampler
// scratch and the device clock of a replica that never saw it: same
// embedding, same kernel count, same simulated seconds, bit for bit.
func TestRejectedItemLeavesReplicaFresh(t *testing.T) {
	serve := func(bad []int32) (*tensor.Tensor, uint64, float64) {
		m, e := buildServable("PSAGE", backend.NewSerial(), 42)
		r := NewReplica(0, m, e.SimClock)
		for _, id := range bad {
			_, dev, err := r.Serve([]int32{3, id})
			var ie *ItemError
			if !errors.As(err, &ie) || ie.Item != id || ie.Items != m.NumItems() || dev != 0 {
				t.Fatalf("item %d: got error %v and %g device seconds, want an *ItemError and none", id, err, dev)
			}
		}
		emb, dev, err := r.Serve([]int32{17, 4})
		if err != nil {
			t.Fatal(err)
		}
		return emb, e.Device().KernelCount(), dev
	}
	wantEmb, wantKernels, wantDev := serve(nil)
	gotEmb, gotKernels, gotDev := serve([]int32{-1, 4000, math.MaxInt32})
	if !tensorsEqual(gotEmb, wantEmb) || gotKernels != wantKernels || gotDev != wantDev {
		t.Fatalf("after rejected ids: %d kernels, %x s, embeddings equal %v; fresh replica: %d kernels, %x s",
			gotKernels, gotDev, tensorsEqual(gotEmb, wantEmb), wantKernels, wantDev)
	}
}
