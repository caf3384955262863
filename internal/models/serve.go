package models

import (
	"slices"

	"gnnmark/internal/autograd"
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

// sampleServeBlock samples the two-hop neighborhood of one item with an RNG
// seeded only by (epochSeed, id) — the per-request analogue of sampleBlock
// without positives/negatives, so repeated requests for an item resample
// the identical subgraph — and appends it to the micro-batch's block b,
// positions offset past the requests already there.
func (m *PSAGE) sampleServeBlock(b *psageBlock, id int32) {
	e, rng := m.env.E, m.serveRNG
	rng.Seed(serveSeed(m.epochSeed, id))
	visits := m.sampler.NumWalks * m.sampler.WalkLength // the most one node's walks make

	seed := []int32{id}
	m.sampleHop(rng, seed, nil, nil, &m.hop1, make([]int32, 0, visits))
	layer1Nodes := dedupeSorted(e, slices.Concat(m.hop1.nbr, seed))
	m.sampleHop(rng, layer1Nodes, seed, &m.hop1, &m.hop2, make([]int32, 0, (len(layer1Nodes)-1)*visits))
	nodes := dedupeSorted(e, slices.Concat(m.hop2.nbr, layer1Nodes))

	off := int32(len(b.nodes))
	b.nodes = append(b.nodes, nodes...)
	b.l1.add(nodes, off, layer1Nodes, &m.hop2)
	b.l2.add(nodes, off, seed, &m.hop1)
	b.seedPos = append(b.seedPos, off+posIn(nodes, id))
}

// ServeEmbed implements Servable for PSAGE: per-request random-walk
// sampling over the frozen graph followed by the two-layer convolution in
// eval mode. Request subgraphs are concatenated with node offsets — no
// cross-request dedup — so every aggregation stays inside its request and
// the micro-batched result matches batch-of-1 bitwise.
func (m *PSAGE) ServeEmbed(ids []int32) *tensor.Tensor {
	e := m.env.E
	e.BeginIteration()

	blk := &psageBlock{seedPos: make([]int32, 0, len(ids))}
	for _, id := range ids {
		m.sampleServeBlock(blk, id)
	}

	feats := e.IndexSelectRows(m.ds.ItemFeatures, blk.nodes)
	e.CopyH2D("psage.serve.features", feats)
	e.CopyH2DInt("psage.serve.nodes", blk.nodes)

	t := autograd.NewTape(e)
	// Same input normalization as training, minus dropout (eval mode).
	h := t.Scale(t.Const(feats), 1.0/1.1)
	h = t.Mul(h, t.Const(tensor.Full(1.1, feats.Shape()...)))
	h = m.convolve(t, m.layer1, h, blk.l1, len(blk.nodes))
	h = m.convolve(t, m.layer2, h, blk.l2, len(blk.nodes))
	out := t.GatherRows(h, blk.seedPos)
	return out.Value.Clone()
}

// NumItems implements Servable: ARGA serves node embeddings.
func (a *ARGA) NumItems() int { return a.ds.Adj.Rows }

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
