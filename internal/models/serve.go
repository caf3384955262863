package models

import (
	"slices"

	"gnnmark/internal/autograd"
	"gnnmark/internal/ops"
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

// servedItem is one item's sampled neighbourhood at offset 0, with the
// item's position among its nodes and, once the memo keeps it, the record
// (ops.RecordSort) of each radix_sort launch sampling it issued, in order.
type servedItem struct {
	nodes  []int32
	l1, l2 sageEdges
	seed   int32
	sorts  [4][]byte
}

// sampleServeBlock appends item id's sampled neighbourhood to the
// micro-batch's block b, positions offset past the requests already there.
// Guarantee 1 makes it a pure function of (epochSeed, id), so the model keeps
// it from the item's second request on (most of a Zipf stream's tail comes
// once). A kept item skips the reseed, the walks, the host sorts and the
// dedupe, but relaunches the sorts in order, each on a fresh device block
// as sampling's fresh key buffers have (DESIGN.md §13).
func (m *PSAGE) sampleServeBlock(b *psageBlock, id int32) {
	if m.served == nil {
		m.served = map[int32]*servedItem{}
		m.seen = make([]uint64, (m.ds.Items+63)/64)
	}
	it := m.served[id]
	if it != nil {
		m.env.m.memoHits.Inc()
		for _, low := range it.sorts {
			m.env.E.RelaunchSort(low)
		}
	} else {
		m.env.m.memoMisses.Inc()
		word, bit := id/64, uint64(1)<<(id%64)
		keep := m.seen[word]&bit != 0
		m.seen[word] |= bit
		it = m.sampleServed(id, keep)
		if keep {
			m.served[id] = it
			m.env.m.memoKept.Inc()
		}
	}

	off := int32(len(b.nodes))
	b.nodes = append(b.nodes, it.nodes...)
	b.l1.addShifted(it.l1, off)
	b.l2.addShifted(it.l2, off)
	b.seedPos = append(b.seedPos, off+it.seed)
}

// sampleServed samples the two-hop neighbourhood of one item with an RNG
// seeded only by (epochSeed, id) — the per-request analogue of sampleBlock
// without positives/negatives — recording its sorts when record is set.
func (m *PSAGE) sampleServed(id int32, record bool) *servedItem {
	e, rng := m.env.E, m.serveRNG
	rng.Seed(serveSeed(m.epochSeed, id))
	visits := m.sampler.NumWalks * m.sampler.WalkLength // the most one node's walks make

	seed := []int32{id}
	trace1 := m.sampleHop(rng, seed, nil, nil, &m.hop1, make([]int32, 0, visits))
	keys1 := slices.Concat(m.hop1.nbr, seed)
	layer1Nodes := dedupeSorted(e, keys1)
	trace2 := m.sampleHop(rng, layer1Nodes, seed, &m.hop1, &m.hop2, make([]int32, 0, (len(layer1Nodes)-1)*visits))
	keys2 := slices.Concat(m.hop2.nbr, layer1Nodes)
	nodes := dedupeSorted(e, keys2)

	it := &servedItem{nodes: nodes, seed: posIn(nodes, id)}
	it.l1.add(nodes, layer1Nodes, &m.hop2)
	it.l2.add(nodes, seed, &m.hop1)
	if record {
		for i, keys := range [...][]int32{trace1, keys1, trace2, keys2} {
			it.sorts[i] = ops.RecordSort(keys)
		}
	}
	return it
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
