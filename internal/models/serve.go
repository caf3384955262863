package models

import (
	"math/rand"

	"gnnmark/internal/autograd"
	"gnnmark/internal/graph"
	"gnnmark/internal/tensor"
)

// Serving support: forward-only embedding passes for the inference plane
// (internal/serve). A Servable workload can embed a micro-batch of item ids
// on its engine with three guarantees the serving plane builds on:
//
//  1. Determinism per id — the sampled neighborhood for an item is a pure
//     function of (model seed, item id), not of global RNG state, so the
//     same request always produces the same embedding.
//  2. Batch invariance — per-request subgraphs are concatenated, never
//     deduplicated across requests, and every op in the forward pass is
//     row-independent, so a request's embedding is bitwise identical
//     whether it runs alone or coalesced into a micro-batch. This is what
//     makes dynamic micro-batching and the embedding cache semantically
//     transparent.
//  3. No training-only ops — dropout and loss heads are skipped; the pass
//     is the eval-mode forward.
type Servable interface {
	Workload
	// ServeEmbed embeds the given item ids, one row per id, running the
	// forward pass on the workload's engine (device time accrues to its
	// simulated clock).
	ServeEmbed(ids []int32) *tensor.Tensor
	// NumItems returns the number of servable item ids ([0, NumItems)).
	NumItems() int
	// EmbedDim returns the embedding width (columns of ServeEmbed rows).
	EmbedDim() int
	// MarkHostBoundary restarts the engine's per-op host-time attribution;
	// the serving plane calls it when a replica picks up a batch, so time
	// spent waiting for requests is not charged to the next kernel.
	MarkHostBoundary()
}

// serveSeed derives the per-item sampling seed: a fixed odd multiplier
// (the 64-bit golden-ratio constant) spreads consecutive ids across the
// seed space, and the +1 keeps id 0 from collapsing onto the model seed.
func serveSeed(modelSeed int64, id int32) int64 {
	return modelSeed ^ (int64(id)+1)*int64(-0x61C8864680B583EB) // 2^64/phi, signed
}

// NumItems implements Servable: PSAGE serves item embeddings.
func (m *PSAGE) NumItems() int { return m.ds.Items }

// EmbedDim implements Servable.
func (m *PSAGE) EmbedDim() int { return m.hidden }

// MarkHostBoundary implements Servable.
func (m *PSAGE) MarkHostBoundary() { m.env.E.MarkHostBoundary() }

// serveBlock is one request's sampled two-hop neighborhood, position-offset
// ready for concatenation into a micro-batch.
type serveBlock struct {
	nodes      []int32
	src1, dst1 []int32
	w1         []float32
	src2, dst2 []int32
	w2         []float32
	seedPos    int32
}

// sampleServeBlock samples the two-hop neighborhood of one item with an RNG
// seeded only by (epochSeed, id) — the per-request analogue of sampleBlock
// without positives/negatives, so repeated requests for an item resample
// the identical subgraph.
func (m *PSAGE) sampleServeBlock(id int32) *serveBlock {
	e := m.env.E
	rng := rand.New(rand.NewSource(serveSeed(m.epochSeed, id)))
	b := &serveBlock{}

	sampled := map[int32]graph.NeighborSample{}
	tr := m.sampler.WalkTrace(rng, id)
	e.SortInt32(append([]int32(nil), tr...))
	sampled[id] = graph.RankVisits(id, tr, m.sampler.TopK)

	hop1 := append(append([]int32{}, sampled[id].Neighbors...), id)
	layer1Nodes := dedupeSorted(e, hop1)
	var trace []int32
	for _, v := range layer1Nodes {
		if _, ok := sampled[v]; !ok {
			t := m.sampler.WalkTrace(rng, v)
			trace = append(trace, t...)
			sampled[v] = graph.RankVisits(v, t, m.sampler.TopK)
		}
	}
	e.SortInt32(trace)
	var all []int32
	for _, v := range layer1Nodes {
		all = append(all, sampled[v].Neighbors...)
	}
	all = append(all, layer1Nodes...)
	b.nodes = dedupeSorted(e, all)

	posOf := make(map[int32]int32, len(b.nodes))
	for i, v := range b.nodes {
		posOf[v] = int32(i)
	}
	for _, v := range layer1Nodes {
		ns := sampled[v]
		for k, nb := range ns.Neighbors {
			b.src1 = append(b.src1, posOf[nb])
			b.dst1 = append(b.dst1, posOf[v])
			b.w1 = append(b.w1, ns.Weights[k])
		}
	}
	ns := sampled[id]
	for k, nb := range ns.Neighbors {
		b.src2 = append(b.src2, posOf[nb])
		b.dst2 = append(b.dst2, posOf[id])
		b.w2 = append(b.w2, ns.Weights[k])
	}
	b.seedPos = posOf[id]
	return b
}

// ServeEmbed implements Servable for PSAGE: per-request random-walk
// sampling over the frozen graph followed by the two-layer convolution in
// eval mode. Request subgraphs are concatenated with node offsets — no
// cross-request dedup — so every aggregation stays inside its request and
// the micro-batched result matches batch-of-1 bitwise.
func (m *PSAGE) ServeEmbed(ids []int32) *tensor.Tensor {
	e := m.env.E
	e.BeginIteration()

	var nodes, src1, dst1, src2, dst2, seedPos []int32
	var w1, w2 []float32
	for _, id := range ids {
		blk := m.sampleServeBlock(id)
		off := int32(len(nodes))
		nodes = append(nodes, blk.nodes...)
		for _, s := range blk.src1 {
			src1 = append(src1, s+off)
		}
		for _, d := range blk.dst1 {
			dst1 = append(dst1, d+off)
		}
		w1 = append(w1, blk.w1...)
		for _, s := range blk.src2 {
			src2 = append(src2, s+off)
		}
		for _, d := range blk.dst2 {
			dst2 = append(dst2, d+off)
		}
		w2 = append(w2, blk.w2...)
		seedPos = append(seedPos, blk.seedPos+off)
	}

	feats := e.IndexSelectRows(m.ds.ItemFeatures, nodes)
	e.CopyH2D("psage.serve.features", feats)
	e.CopyH2DInt("psage.serve.nodes", nodes)

	t := autograd.NewTape(e)
	// Same input normalization as training, minus dropout (eval mode).
	h := t.Scale(t.Const(feats), 1.0/1.1)
	h = t.Mul(h, t.Const(tensor.Full(1.1, feats.Shape()...)))
	h = m.convolve(t, m.layer1, h, src1, dst1, w1, len(nodes))
	h = m.convolve(t, m.layer2, h, src2, dst2, w2, len(nodes))
	out := t.GatherRows(h, seedPos)
	return out.Value.Clone()
}

// NumItems implements Servable: ARGA serves node embeddings.
func (a *ARGA) NumItems() int { return a.adj.Rows }

// EmbedDim implements Servable.
func (a *ARGA) EmbedDim() int { return a.embed }

// MarkHostBoundary implements Servable.
func (a *ARGA) MarkHostBoundary() { a.env.E.MarkHostBoundary() }

// ServeEmbed implements Servable for ARGA: the full-graph GCN encoder runs
// once per micro-batch (full-graph models have no per-request sampling) and
// the requested rows are gathered out. Row-independence of the gather makes
// the per-request result batch-invariant trivially.
func (a *ARGA) ServeEmbed(ids []int32) *tensor.Tensor {
	e := a.env.E
	e.BeginIteration()
	e.CopyH2D("arga.serve.features", a.ds.Features)
	t := autograd.NewTape(e)
	z := a.encode(t, t.Const(a.ds.Features))
	out := t.GatherRows(z, ids)
	return out.Value.Clone()
}
