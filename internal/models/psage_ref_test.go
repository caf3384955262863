package models

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gnnmark/internal/datasets"
	"gnnmark/internal/graph"
	"gnnmark/internal/tensor"
)

// The block builders sampleBlock and sampleServeBlock replaced, kept as
// their references: a map of per-node samples, a map-and-full-sort ranker,
// a positions map, traces grown by append, and a fresh RNG table per
// request. The engine names device blocks by the identity of the slices it
// is handed, so "same bits" covers which slices are fresh allocations too;
// the tests below hold that through the engine's counters.

type neighborSampleRef struct {
	neighbors []int32
	weights   []float32
}

func rankVisitsRef(trace []int32, topK int) neighborSampleRef {
	visits := map[int32]int{}
	for _, v := range trace {
		visits[v]++
	}
	type kv struct {
		item  int32
		count int
	}
	ranked := make([]kv, 0, len(visits))
	for it, c := range visits {
		ranked = append(ranked, kv{it, c})
	}
	slices.SortFunc(ranked, func(a, b kv) int {
		return cmp.Or(cmp.Compare(b.count, a.count), cmp.Compare(a.item, b.item))
	})
	k := min(topK, len(ranked))
	var out neighborSampleRef
	total := 0
	for i := 0; i < k; i++ {
		total += ranked[i].count
	}
	for i := 0; i < k; i++ {
		out.neighbors = append(out.neighbors, ranked[i].item)
		out.weights = append(out.weights, float32(ranked[i].count)/float32(total))
	}
	return out
}

func (m *PSAGE) sampleServeBlockRef(id int32) *psageBlock {
	e := m.env.E
	rng := rand.New(rand.NewSource(serveSeed(m.epochSeed, id)))
	b := &psageBlock{}

	sampled := map[int32]neighborSampleRef{}
	tr := m.sampler.WalkTrace(rng, id, nil)
	e.SortInt32(append([]int32(nil), tr...))
	sampled[id] = rankVisitsRef(tr, m.sampler.TopK)

	hop1 := append(append([]int32{}, sampled[id].neighbors...), id)
	layer1Nodes := dedupeSorted(e, hop1)
	var trace []int32
	for _, v := range layer1Nodes {
		if _, ok := sampled[v]; !ok {
			t := m.sampler.WalkTrace(rng, v, nil)
			trace = append(trace, t...)
			sampled[v] = rankVisitsRef(t, m.sampler.TopK)
		}
	}
	e.SortInt32(trace)
	var all []int32
	for _, v := range layer1Nodes {
		all = append(all, sampled[v].neighbors...)
	}
	all = append(all, layer1Nodes...)
	b.nodes = dedupeSorted(e, all)

	posOf := make(map[int32]int32, len(b.nodes))
	for i, v := range b.nodes {
		posOf[v] = int32(i)
	}
	for _, v := range layer1Nodes {
		ns := sampled[v]
		for k, nb := range ns.neighbors {
			b.l1.src = append(b.l1.src, posOf[nb])
			b.l1.dst = append(b.l1.dst, posOf[v])
			b.l1.w = append(b.l1.w, ns.weights[k])
		}
	}
	ns := sampled[id]
	for k, nb := range ns.neighbors {
		b.l2.src = append(b.l2.src, posOf[nb])
		b.l2.dst = append(b.l2.dst, posOf[id])
		b.l2.w = append(b.l2.w, ns.weights[k])
	}
	b.seedPos = []int32{posOf[id]}
	return b
}

func (m *PSAGE) sampleBlockRef(rng *rand.Rand, seeds []int32) *psageBlock {
	e := m.env.E
	b := &psageBlock{}

	pos := make([]int32, len(seeds))
	neg := make([]int32, len(seeds))
	for i, s := range seeds {
		pos[i] = s
		users := m.ds.ItemUsers.Neighbors(int(s))
		if len(users) > 0 {
			u := users[rng.Intn(len(users))]
			items := m.ds.UserItems.Neighbors(int(u))
			if len(items) > 0 {
				pos[i] = items[rng.Intn(len(items))]
			}
		}
		neg[i] = int32(rng.Intn(m.ds.Items))
	}

	frontier := append(append(append([]int32{}, seeds...), pos...), neg...)
	sampled := map[int32]neighborSampleRef{}
	var hop1 []int32
	var trace []int32
	for _, v := range dedupeSorted(e, frontier) {
		tr := m.sampler.WalkTrace(rng, v, nil)
		trace = append(trace, tr...)
		ns := rankVisitsRef(tr, m.sampler.TopK)
		sampled[v] = ns
		hop1 = append(hop1, ns.neighbors...)
	}
	e.SortInt32(trace)
	hop1 = append(hop1, frontier...)
	layer1Nodes := dedupeSorted(e, hop1)
	trace = trace[:0]
	for _, v := range layer1Nodes {
		if _, ok := sampled[v]; !ok {
			tr := m.sampler.WalkTrace(rng, v, nil)
			trace = append(trace, tr...)
			sampled[v] = rankVisitsRef(tr, m.sampler.TopK)
		}
	}
	e.SortInt32(trace)
	var all []int32
	for _, v := range layer1Nodes {
		all = append(all, sampled[v].neighbors...)
	}
	all = append(all, layer1Nodes...)
	b.nodes = dedupeSorted(e, all)

	posOf := make(map[int32]int32, len(b.nodes))
	for i, v := range b.nodes {
		posOf[v] = int32(i)
	}
	for _, v := range layer1Nodes {
		ns := sampled[v]
		for k, nb := range ns.neighbors {
			b.l1.src = append(b.l1.src, posOf[nb])
			b.l1.dst = append(b.l1.dst, posOf[v])
			b.l1.w = append(b.l1.w, ns.weights[k])
		}
	}
	for _, v := range dedupeSorted(e, frontier) {
		ns := sampled[v]
		for k, nb := range ns.neighbors {
			b.l2.src = append(b.l2.src, posOf[nb])
			b.l2.dst = append(b.l2.dst, posOf[v])
			b.l2.w = append(b.l2.w, ns.weights[k])
		}
	}
	for _, s := range seeds {
		b.seedPos = append(b.seedPos, posOf[s])
	}
	for _, p := range pos {
		b.posPos = append(b.posPos, posOf[p])
	}
	for _, ng := range neg {
		b.negPos = append(b.negPos, posOf[ng])
	}
	return b
}

// tinyBipartite is a 40-item graph dense enough that a training batch's
// frontier covers most of its first hop — so the second trace is short and
// is sorted in the first one's device buffer, the case MovieLens never
// reaches — with its last items left isolated.
func tinyBipartite(rng *rand.Rand) *datasets.Bipartite {
	const users, items = 12, 40
	var edges, rev []graph.Edge
	for u := int32(0); u < users; u++ {
		for _, it := range rng.Perm(items - 3)[:6] {
			edges = append(edges, graph.Edge{Src: u, Dst: int32(it)})
			rev = append(rev, graph.Edge{Src: int32(it), Dst: u})
		}
	}
	return &datasets.Bipartite{
		Name: "tiny", Users: users, Items: items,
		ItemUsers:    graph.FromEdges(items, users, edges),
		UserItems:    graph.FromEdges(users, items, rev),
		ItemFeatures: tensor.Rand(rng, 1, items, 8),
	}
}

// engineCounters is what a sampler call leaves on its engine: a reused
// engine-visible buffer shows as a missing allocation, a dropped or
// reordered sort as a kernel count or a clock that differs.
func engineCounters(m *PSAGE) string {
	d := m.env.E.Device()
	return fmt.Sprintf("kernels %d, vmem allocs %d, sim %x s", d.KernelCount(), d.MemStats().Allocs, d.ElapsedSeconds())
}

func blocksEqual(a, b *psageBlock) bool {
	edges := func(x, y sageEdges) bool {
		return slices.Equal(x.src, y.src) && slices.Equal(x.dst, y.dst) && slices.Equal(x.w, y.w)
	}
	return slices.Equal(a.nodes, b.nodes) && edges(a.l1, b.l1) && edges(a.l2, b.l2) &&
		slices.Equal(a.seedPos, b.seedPos) && slices.Equal(a.posPos, b.posPos) && slices.Equal(a.negPos, b.negPos)
}

// TestSampleBlocksMatchReference builds every block twice, on twin models
// with twin devices: by the reference builders above and by the shipped
// ones. Blocks and engine counters must agree after every call, for every
// item served (four requests to an engine iteration, as a micro-batch has)
// and for three training batches.
func TestSampleBlocksMatchReference(t *testing.T) {
	for _, ds := range []struct {
		name  string
		build func(*rand.Rand) *datasets.Bipartite
	}{{"MVL", datasets.MovieLens}, {"tiny", tinyBipartite}} {
		t.Run(ds.name, func(t *testing.T) {
			twin := func() *PSAGE {
				env, _ := testEnv(11)
				return NewPSAGE(env, ds.build(env.RNG), PSAGEConfig{Hidden: 16, BatchSize: 8, Batches: 3})
			}
			ref, got := twin(), twin()

			for id := int32(0); int(id) < ref.NumItems(); id++ {
				if id%4 == 0 {
					ref.env.E.BeginIteration()
					got.env.E.BeginIteration()
				}
				want, blk := ref.sampleServeBlockRef(id), &psageBlock{}
				got.sampleServeBlock(blk, id)
				if !blocksEqual(want, blk) {
					t.Fatalf("item %d: serve block\n got %+v\nwant %+v", id, blk, want)
				}
				if w, g := engineCounters(ref), engineCounters(got); w != g {
					t.Fatalf("item %d: engine after serve block: %s, want %s", id, g, w)
				}
			}

			refRNG, gotRNG := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
			for batch := 0; batch < 3; batch++ {
				seeds := make([]int32, 8)
				for i := range seeds {
					seeds[i] = int32(refRNG.Intn(ref.NumItems()))
					gotRNG.Intn(ref.NumItems())
				}
				ref.env.E.BeginIteration()
				got.env.E.BeginIteration()
				want, blk := ref.sampleBlockRef(refRNG, seeds), got.sampleBlock(gotRNG, seeds)
				if !blocksEqual(want, blk) {
					t.Fatalf("batch %d: training block\n got %+v\nwant %+v", batch, blk, want)
				}
				if w, g := engineCounters(ref), engineCounters(got); w != g {
					t.Fatalf("batch %d: engine after training block: %s, want %s", batch, g, w)
				}
				if refRNG.Int63() != gotRNG.Int63() {
					t.Fatalf("batch %d: sampleBlock drew a different number of random values", batch)
				}
			}
		})
	}
}

// TestServeEmbedAllocCeiling keeps maps, per-request RNG tables and grown
// traces from creeping back into a served request: a batch-1 ServeEmbed,
// engine, tape and device model included, measured 237 allocations when the
// bound was set (540 before the sampler was rebuilt and block tags went lazy).
func TestServeEmbedAllocCeiling(t *testing.T) {
	m := servePSAGE(t, 3)
	ids := []int32{17}
	m.ServeEmbed(ids)
	if got := testing.AllocsPerRun(20, func() { m.ServeEmbed(ids) }); got > 250 {
		t.Fatalf("batch-1 ServeEmbed made %.0f allocations, ceiling 250", got)
	}
}
