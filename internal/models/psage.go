package models

import (
	"math/rand"
	"slices"

	"gnnmark/internal/autograd"
	"gnnmark/internal/datasets"
	"gnnmark/internal/graph"
	"gnnmark/internal/nn"
	"gnnmark/internal/tensor"
)

// PSAGE is PinSAGE (Ying et al.) following the DGL reference
// implementation: random-walk importance sampling builds a small bipartite
// neighborhood per seed item batch, a two-layer SAGE-style convolution
// embeds items, and a max-margin ranking loss separates co-interacted item
// pairs from random negatives.
//
// Batch construction is index-heavy — node-id sorting and deduplication,
// index selection to materialize feature rows — which is why PSAGE shows
// large Sort/IndexSelect shares in Figure 2, and why its per-batch sampler
// is incompatible with DDP sharding (Figure 9's slowdown).
type PSAGE struct {
	trainer
	ds *datasets.Bipartite

	sampler *graph.RandomWalkSampler
	layer1  *sageLayer
	layer2  *sageLayer

	batchSize int
	batches   int
	epochSeed int64

	// Sampler scratch, host-private and reused from block to block (a
	// model runs on one goroutine): the serving RNG, re-seeded per request;
	// one node's walk; the per-node ends of the trace being sorted; and
	// the two hops' ranked neighbors.
	serveRNG   *rand.Rand
	walk       []int32
	ends       []int
	hop1, hop2 hopSamples
}

type sageLayer struct {
	self, neigh *nn.Linear
}

func newSageLayer(env *Env, name string, in, out int) *sageLayer {
	return &sageLayer{
		self:  nn.NewLinear(env.RNG, name+".self", in, out, true),
		neigh: nn.NewLinear(env.RNG, name+".neigh", in, out, false),
	}
}

// PSAGEConfig holds PinSAGE hyperparameters.
type PSAGEConfig struct {
	Hidden    int // embedding width (default 32)
	BatchSize int // seed items per batch (default 32)
	Batches   int // batches per epoch (default 10)
	NumWalks  int // random walks per seed (default 48)
}

func (c *PSAGEConfig) defaults() {
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.Batches == 0 {
		c.Batches = 10
	}
	if c.NumWalks == 0 {
		c.NumWalks = 48
	}
}

// NewPSAGE builds the workload on a bipartite dataset (MVL or NWP).
func NewPSAGE(env *Env, ds *datasets.Bipartite, cfg PSAGEConfig) *PSAGE {
	cfg.defaults()
	f := ds.ItemFeatures.Dim(1)
	m := &PSAGE{
		trainer:   trainer{env: env},
		ds:        ds,
		sampler:   graph.NewRandomWalkSampler(ds.ItemUsers, ds.UserItems, cfg.NumWalks, 2, 5), // 2 item-hops, top 5 kept
		layer1:    newSageLayer(env, "psage.l1", f, cfg.Hidden),
		layer2:    newSageLayer(env, "psage.l2", cfg.Hidden, cfg.Hidden),
		batchSize: cfg.BatchSize,
		batches:   cfg.Batches,
		epochSeed: env.RNG.Int63(),
		serveRNG:  rand.New(rand.NewSource(0)),
	}
	m.opt = nn.NewAdam(env.E, nn.CollectParams(m.layer1.self, m.layer1.neigh, m.layer2.self, m.layer2.neigh), 0.003)
	return m
}

// DDPCompatible implements Workload: the DGL PinSAGE batch sampler does not
// shard under DDP; data is replicated across devices (paper §V-E).
func (m *PSAGE) DDPCompatible() bool { return false }

// IterationsPerEpoch implements Workload.
func (m *PSAGE) IterationsPerEpoch() int { return m.batches }

// psageBlock is a two-hop sampled neighborhood: the deduplicated node list
// plus per-layer (srcPos, dstPos, weight) aggregation triples. Training
// builds one per batch; serving concatenates one per request, offsetting
// positions, into the block of a micro-batch. Every slice here reaches the
// engine, which names device blocks by slice identity, so each is allocated
// afresh per block.
type psageBlock struct {
	nodes  []int32   // unique item ids, sorted (per request when serving)
	l1, l2 sageEdges // layer 1 aggregates into every hop-1 node, layer 2 into the frontier
	// positions within nodes of the seeds, their positive partners and
	// their negatives (serving has seeds only).
	seedPos, posPos, negPos []int32
}

// sageEdges is one layer's aggregation: row dst[i] receives w[i] times row
// src[i].
type sageEdges struct {
	src, dst []int32
	w        []float32
}

// hopSamples holds the ranked walk neighbors of a sorted node list, flat:
// node i's neighbors are nbr[off[i]:off[i+1]] with weights w at the same
// indices. It is host-private scratch, reused from block to block.
type hopSamples struct {
	nbr []int32
	w   []float32
	off []int32
}

func (h *hopSamples) of(i int) ([]int32, []float32) {
	lo, hi := h.off[i], h.off[i+1]
	return h.nbr[lo:hi], h.w[lo:hi]
}

// sampleHop ranks the TopK walk neighbors of every node in nodes
// (ascending) into out. Nodes the previous hop already covers (prevNodes,
// an ascending subset of nodes, sampled in prev) are copied from it; the
// rest are walked, their traces concatenated onto trace and sorted node by
// node under one radix_sort launch. trace is the buffer that launch names,
// so the caller chooses its identity; the grown buffer is returned.
func (m *PSAGE) sampleHop(rng *rand.Rand, nodes, prevNodes []int32, prev, out *hopSamples, trace []int32) []int32 {
	covered := func(i, j int) bool { return j < len(prevNodes) && prevNodes[j] == nodes[i] }
	m.ends = m.ends[:0]
	for i, j := 0, 0; i < len(nodes); i++ {
		if covered(i, j) {
			j++
			continue
		}
		m.walk = m.sampler.WalkTrace(rng, nodes[i], m.walk[:0])
		trace = append(trace, m.walk...)
		m.ends = append(m.ends, len(trace))
	}
	sorted := m.env.E.SortInt32Segments(trace, m.ends)

	out.nbr, out.w, out.off = out.nbr[:0], out.w[:0], append(out.off[:0], 0)
	lo, seg := 0, 0
	for i, j := 0, 0; i < len(nodes); i++ {
		if covered(i, j) {
			nb, w := prev.of(j)
			out.nbr, out.w = append(out.nbr, nb...), append(out.w, w...)
			j++
		} else {
			hi := m.ends[seg]
			out.nbr, out.w = graph.RankVisits(sorted[lo:hi], m.sampler.TopK, out.nbr, out.w)
			lo, seg = hi, seg+1
		}
		out.off = append(out.off, int32(len(out.nbr)))
	}
	return trace
}

// add appends the aggregation of dsts' ranked neighbors (h is parallel to
// dsts) as positions in the sorted node list nodes, shifted by off.
func (g *sageEdges) add(nodes []int32, off int32, dsts []int32, h *hopSamples) {
	g.src, g.dst = slices.Grow(g.src, len(h.nbr)), slices.Grow(g.dst, len(h.nbr))
	for i, v := range dsts {
		nb, _ := h.of(i)
		p := off + posIn(nodes, v)
		for _, u := range nb {
			g.src = append(g.src, off+posIn(nodes, u))
			g.dst = append(g.dst, p)
		}
	}
	g.w = append(g.w, h.w...)
}

// posIn returns v's position in the sorted, deduplicated nodes.
func posIn(nodes []int32, v int32) int32 {
	i, _ := slices.BinarySearch(nodes, v)
	return int32(i)
}

// positionsIn returns a fresh slice of each id's position in nodes.
func positionsIn(nodes, ids []int32) []int32 {
	out := make([]int32, len(ids))
	for i, v := range ids {
		out[i] = posIn(nodes, v)
	}
	return out
}

// sampleBlock builds the batch's two-hop sampled neighborhood: for every
// seed, positive and negative, its TopK random-walk neighbors and their
// neighbors.
func (m *PSAGE) sampleBlock(rng *rand.Rand, seeds []int32) *psageBlock {
	e := m.env.E

	// Positive partners: another item of one of the seed's users.
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

	// Frontier: seeds + pos + neg need layer-2 outputs; sample their
	// neighborhoods (layer-1 inputs), then those neighbors' neighborhoods.
	// The sampler materializes every random-walk visit and ranks neighbors
	// by sorted visit counts on the device — the sort kernels behind
	// PSAGE's Figure 2 profile.
	frontier := slices.Concat(seeds, pos, neg)
	front := dedupeSorted(e, frontier)
	trace := m.sampleHop(rng, front, nil, nil, &m.hop1, nil)
	layer1Nodes := dedupeSorted(e, slices.Concat(m.hop1.nbr, frontier))
	// The second trace is sorted in the first one's device buffer when it
	// fits there: the engine sees the same slice identity.
	m.sampleHop(rng, layer1Nodes, front, &m.hop1, &m.hop2, trace[:0])
	b := &psageBlock{nodes: dedupeSorted(e, slices.Concat(m.hop2.nbr, layer1Nodes))}

	// Layer 1 aggregates into every layer1 node; layer 2 into the frontier.
	b.l1.add(b.nodes, 0, layer1Nodes, &m.hop2)
	b.l2.add(b.nodes, 0, dedupeSorted(e, frontier), &m.hop1)
	b.seedPos, b.posPos, b.negPos = positionsIn(b.nodes, seeds), positionsIn(b.nodes, pos), positionsIn(b.nodes, neg)
	return b
}

// dedupeSorted sorts ids on the device (emitting the sort kernel the DGL
// sampler pipeline runs) and removes duplicates.
func dedupeSorted(e interface {
	SortInt32([]int32) []int32
}, ids []int32) []int32 {
	if len(ids) == 0 {
		return nil
	}
	sorted := e.SortInt32(ids)
	out := sorted[:1]
	for _, v := range sorted[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// convolve applies one SAGE layer: h' = ReLU(W_self h + W_neigh agg), where
// agg is the importance-weighted neighbor sum done with gather + scale +
// scatter (the scatter/gather mix of Figure 2).
func (m *PSAGE) convolve(t *autograd.Tape, layer *sageLayer, h *autograd.Var, g sageEdges, rows int) *autograd.Var {
	gathered := t.GatherRows(h, g.src)
	wMat := tensor.New(len(g.src), h.Value.Dim(1))
	for i, wi := range g.w {
		row := wMat.Row(i)
		for j := range row {
			row[j] = wi
		}
	}
	weighted := t.Mul(gathered, t.Const(wMat))
	agg := t.ScatterAddRows(rows, weighted, g.dst)
	return t.ReLU(t.Add(layer.self.Forward(t, h), layer.neigh.Forward(t, agg)))
}

// TrainEpoch implements Workload.
func (m *PSAGE) TrainEpoch() float64 {
	var total float64
	// Batches are regenerated identically every epoch (the DGL reference
	// iterates a fixed sampler schedule), keeping epoch losses comparable.
	rng := rand.New(rand.NewSource(m.epochSeed))
	for it := 0; it < m.batches; it++ {
		m.env.iter()
		e := m.env.E

		seeds := make([]int32, m.batchSize)
		for i := range seeds {
			seeds[i] = int32(rng.Intn(m.ds.Items))
		}
		blk := m.sampleBlock(rng, seeds)

		// Materialize and transfer the batch's feature rows (index_select
		// on the host followed by H2D, as DGL does for sampled batches).
		feats := e.IndexSelectRows(m.ds.ItemFeatures, blk.nodes)
		e.CopyH2D("psage.features", feats)
		e.CopyH2DInt("psage.nodes", blk.nodes)

		t := autograd.NewTape(e)
		// Input-feature preprocessing (normalization + feature dropout):
		// element-wise work proportional to the raw feature width, which is
		// what makes PSAGE/NWP element-wise-dominated in Figure 2.
		h := t.Dropout(t.Scale(t.Const(feats), 1.0/1.1), 0.1, rng)
		h = t.Mul(h, t.Const(tensor.Full(1.1, feats.Shape()...)))
		h = m.convolve(t, m.layer1, h, blk.l1, len(blk.nodes))
		h = m.convolve(t, m.layer2, h, blk.l2, len(blk.nodes))

		seedEmb := t.GatherRows(h, blk.seedPos)
		posEmb := t.GatherRows(h, blk.posPos)
		negEmb := t.GatherRows(h, blk.negPos)

		posScore := t.SumCols(t.Mul(seedEmb, posEmb))
		negScore := t.SumCols(t.Mul(seedEmb, negEmb))
		loss := t.MaxMargin(posScore, negScore, 0.5)

		m.env.Step(t, loss, m.opt, 0)
		total += float64(loss.Value.At(0))
	}
	return total / float64(m.batches)
}
