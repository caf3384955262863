package models

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gnnmark/internal/datasets"
	"gnnmark/internal/gpu"
	"gnnmark/internal/obs"
	"gnnmark/internal/serve"
	"gnnmark/internal/tensor"
)

func servePSAGE(t *testing.T, seed int64) *PSAGE { return servePSAGEIn(t, seed, nil) }

// servePSAGEIn is servePSAGE recording into run.
func servePSAGEIn(t *testing.T, seed int64, run *obs.Run) *PSAGE {
	t.Helper()
	env, _ := testEnvIn(seed, run)
	return NewPSAGE(env, datasets.MovieLens(env.RNG), PSAGEConfig{Hidden: 16, BatchSize: 8, Batches: 3})
}

func serveARGA(t *testing.T, seed int64) *ARGA {
	t.Helper()
	env, _ := testEnv(seed)
	return NewARGA(env, datasets.NewCitation(env.RNG, "cora"), ARGAConfig{Hidden: 16, Embed: 8})
}

// rowsEqual reports whether row i of a equals row j of b bitwise.
func rowsEqual(a *tensor.Tensor, i int, b *tensor.Tensor, j int) bool {
	ra, rb := a.Row(i), b.Row(j)
	if len(ra) != len(rb) {
		return false
	}
	for k := range ra {
		if ra[k] != rb[k] {
			return false
		}
	}
	return true
}

func TestServeEmbedBatchInvariant(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*testing.T, int64) Servable
		dim   int // the embedding width of the config built
	}{
		{"PSAGE", func(t *testing.T, s int64) Servable { return servePSAGE(t, s) }, 16},
		{"ARGA", func(t *testing.T, s int64) Servable { return serveARGA(t, s) }, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build(t, 42)
			ids := []int32{3, 17, 3, int32(m.NumItems() - 1)}
			batched := m.ServeEmbed(ids)
			if batched.Dim(0) != len(ids) || batched.Dim(1) != tc.dim {
				t.Fatalf("batched shape %v, want [%d %d]", batched.Shape(), len(ids), tc.dim)
			}
			for i, id := range ids {
				single := m.ServeEmbed([]int32{id})
				if !rowsEqual(batched, i, single, 0) {
					t.Errorf("id %d: micro-batched row differs from batch-of-1", id)
				}
			}
			// Duplicate ids in one batch embed identically (pure function
			// of id — the property the LRU cache relies on).
			if !rowsEqual(batched, 0, batched, 2) {
				t.Error("duplicate id rows differ within one batch")
			}
		})
	}
}

func TestServeEmbedDeterministicAcrossModels(t *testing.T) {
	// Two models built from the same seed must serve identical embeddings:
	// sampling depends only on (model seed, id), never on shared RNG state
	// mutated by prior requests.
	a := servePSAGE(t, 7)
	b := servePSAGE(t, 7)
	// Skew b's request history so any hidden RNG coupling would surface.
	b.ServeEmbed([]int32{1, 2, 3})
	ids := []int32{5, 9}
	ea, eb := a.ServeEmbed(ids), b.ServeEmbed(ids)
	for i := range ids {
		if !rowsEqual(ea, i, eb, i) {
			t.Fatalf("id %d: same-seed models served different embeddings", ids[i])
		}
	}
}

// zipfBatches returns n micro-batches of 1 to 16 ids drawn Zipf-skewed over
// items, as the serving plane's arrival streams are; every fourth batch
// repeats its first id at its end.
func zipfBatches(seed int64, items, n int) [][]int32 {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(items-1))
	batches := make([][]int32, n)
	for b := range batches {
		ids := make([]int32, 1+b%16)
		for i := range ids {
			ids[i] = int32(z.Uint64())
		}
		if b%4 == 1 {
			ids = append(ids, ids[0])
		}
		batches[b] = ids
	}
	return batches
}

// TestServeMemoIsInvisible: serving from the neighbourhood memo is serving
// without it, bit for bit, to the host and to the device. Twin servables
// take the same Zipf micro-batch stream; one forgets its memo and seen-set
// before every call. Batches repeat an id within themselves, whose sorts
// must still land on blocks of their own. Embeddings, every kernel's stats,
// the clock and the allocator's counters must agree after every call, and
// the memo must have answered some requests.
func TestServeMemoIsInvisible(t *testing.T) {
	twin := func() (*PSAGE, func() []gpu.KernelStats) {
		m := servePSAGE(t, 9)
		dev := m.env.E.Device()
		var log []gpu.KernelStats
		dev.Subscribe(func(ks gpu.KernelStats) { log = append(log, ks) })
		return m, func() []gpu.KernelStats { dev.Sync(); return log }
	}
	memo, memoLog := twin()
	fresh, freshLog := twin()
	for call, ids := range zipfBatches(4, memo.NumItems(), 60) {
		fresh.served, fresh.seen = nil, nil
		got, want := memo.ServeEmbed(ids), fresh.ServeEmbed(ids)
		for i, v := range want.Data() {
			if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
				t.Fatalf("call %d %v: element %d = %v from the memo, %v sampled", call, ids, i, got.Data()[i], v)
			}
		}
		if g, w := memoLog(), freshLog(); !slices.Equal(g, w) {
			t.Fatalf("call %d %v: the memo's %d kernels differ from sampling's %d", call, ids, len(g), len(w))
		}
		gd, wd := memo.env.E.Device(), fresh.env.E.Device()
		if gd.ElapsedSeconds() != wd.ElapsedSeconds() || gd.MemStats() != wd.MemStats() {
			t.Fatalf("call %d %v: the memo left %x s and %+v, sampling %x s and %+v",
				call, ids, gd.ElapsedSeconds(), gd.MemStats(), wd.ElapsedSeconds(), wd.MemStats())
		}
	}
	if len(memo.served) == 0 {
		t.Fatal("the memo kept no item: the comparison tested sampling against itself")
	}
}

// TestServeMemoCounters: every sampled request is a memo hit or a miss, and
// the memo keeps what the kept counter says.
func TestServeMemoCounters(t *testing.T) {
	t.Parallel()
	run := obs.NewRun()
	hits, misses, kept := run.Counter("psage.serve.memo.hits"), run.Counter("psage.serve.memo.misses"), run.Counter("psage.serve.memo.kept")
	h0, m0, k0 := hits.Value(), misses.Value(), kept.Value()

	m := servePSAGEIn(t, 5, run)
	requests := 0
	for _, ids := range zipfBatches(6, m.NumItems(), 40) {
		m.ServeEmbed(ids)
		requests += len(ids)
	}
	h, ms, k := hits.Value()-h0, misses.Value()-m0, kept.Value()-k0
	if h+ms != int64(requests) || k != int64(len(m.served)) || h == 0 {
		t.Fatalf("%d hits + %d misses over %d requests, %d kept of %d held", h, ms, requests, k, len(m.served))
	}
}

// forgetful serves like its PSAGE after forgetting the neighbourhood memo
// and the seen-set before every batch.
type forgetful struct{ *PSAGE }

func (f forgetful) ServeEmbed(ids []int32) *tensor.Tensor {
	f.served, f.seen = nil, nil
	return f.PSAGE.ServeEmbed(ids)
}

// TestServeMemoThroughTheServer: the memo is invisible to the serving plane
// too. Two servers with two replicas each run one Zipf trace with repeated
// items and no embedding cache, so repeats reach the models: one over PSAGE
// replicas, one over twins that forget their memo before every batch. Their
// Stats (latencies, QPS, device seconds) must match bit for bit, and the
// memo must have answered requests.
func TestServeMemoThroughTheServer(t *testing.T) {
	t.Parallel()
	o := obs.NewRun()
	hits := o.Counter("psage.serve.memo.hits")
	run := func(wrap func(*PSAGE) serve.Model) serve.Stats {
		var reps []*serve.Replica
		items := 0
		for r := 0; r < 2; r++ {
			m := servePSAGEIn(t, 11, o)
			reps = append(reps, serve.NewReplica(r, wrap(m), m.env.SimClock))
			items = m.NumItems()
		}
		reqs := serve.OpenArrivals(serve.LoadConfig{Seed: 5, QPS: 40000, Duration: 0.004, Items: items, ZipfS: 1.1})
		st, err := serve.New(serve.Config{Endpoint: "memo", MaxBatch: 4, MaxWaitSeconds: 50e-6}, reps).Run(serve.NewSliceSource(reqs))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	h0 := hits.Value()
	memo := run(func(m *PSAGE) serve.Model { return m })
	if hits.Value() == h0 {
		t.Fatal("the memo answered no request: the comparison tested sampling against itself")
	}
	fresh := run(func(m *PSAGE) serve.Model { return forgetful{m} })
	if memo != fresh {
		t.Fatalf("served with the memo:\n%+v\nwithout:\n%+v", memo, fresh)
	}
	if memo.Completed == 0 {
		t.Fatal("nothing was served")
	}
}
