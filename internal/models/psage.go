package models

import (
	"math/rand"

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
	env *Env
	ds  *datasets.Bipartite

	sampler *graph.RandomWalkSampler
	layer1  *sageLayer
	layer2  *sageLayer
	opt     nn.Optimizer

	hidden    int
	batchSize int
	batches   int
	epochSeed int64
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

func (l *sageLayer) params() []*autograd.Param {
	return nn.CollectParams(l.self, l.neigh)
}

// PSAGEConfig holds PinSAGE hyperparameters.
type PSAGEConfig struct {
	Hidden     int // embedding width (default 32)
	BatchSize  int // seed items per batch (default 32)
	Batches    int // batches per epoch (default 10)
	NumWalks   int // random walks per seed (default 16)
	WalkLength int // item-hops per walk (default 2)
	TopK       int // neighbors kept per seed (default 5)
	LR         float32
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
	if c.WalkLength == 0 {
		c.WalkLength = 2
	}
	if c.TopK == 0 {
		c.TopK = 5
	}
	if c.LR == 0 {
		c.LR = 0.003
	}
}

// NewPSAGE builds the workload on a bipartite dataset (MVL or NWP).
func NewPSAGE(env *Env, ds *datasets.Bipartite, cfg PSAGEConfig) *PSAGE {
	cfg.defaults()
	f := ds.ItemFeatures.Dim(1)
	m := &PSAGE{
		env:       env,
		ds:        ds,
		sampler:   graph.NewRandomWalkSampler(ds.ItemUsers, ds.UserItems, cfg.NumWalks, cfg.WalkLength, cfg.TopK),
		layer1:    newSageLayer(env, "psage.l1", f, cfg.Hidden),
		layer2:    newSageLayer(env, "psage.l2", cfg.Hidden, cfg.Hidden),
		hidden:    cfg.Hidden,
		batchSize: cfg.BatchSize,
		batches:   cfg.Batches,
		epochSeed: env.RNG.Int63(),
	}
	m.opt = nn.NewAdam(env.E, m.Params(), cfg.LR)
	return m
}

// Name implements Workload.
func (m *PSAGE) Name() string { return "PSAGE" }

// DatasetName implements Workload.
func (m *PSAGE) DatasetName() string { return m.ds.Name }

// DDPCompatible implements Workload: the DGL PinSAGE batch sampler does not
// shard under DDP; data is replicated across devices (paper §V-E).
func (m *PSAGE) DDPCompatible() bool { return false }

// IterationsPerEpoch implements Workload.
func (m *PSAGE) IterationsPerEpoch() int { return m.batches }

// Optimizer implements Workload.
func (m *PSAGE) Optimizer() nn.Optimizer { return m.opt }

// Params implements Workload.
func (m *PSAGE) Params() []*autograd.Param {
	return append(m.layer1.params(), m.layer2.params()...)
}

// sampleBlock builds one two-hop sampled neighborhood: for every seed, its
// TopK random-walk neighbors and their neighbors. Returns the deduplicated
// node list plus per-layer (srcPos, dstPos, weight) aggregation triples.
type psageBlock struct {
	nodes []int32 // unique item ids, sorted
	// layer aggregation: dst row <- weighted sum of src rows.
	src1, dst1 []int32
	w1         []float32
	src2, dst2 []int32
	w2         []float32
	seedPos    []int32 // positions of the seeds within nodes
	posPos     []int32 // positions of positive partner items
	negPos     []int32 // positions of negative items
}

func (m *PSAGE) sampleBlock(rng *rand.Rand, seeds []int32) *psageBlock {
	e := m.env.E
	b := &psageBlock{}

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
	frontier := append(append(append([]int32{}, seeds...), pos...), neg...)
	sampled := map[int32]graph.NeighborSample{}
	var hop1 []int32
	var trace []int32
	for _, v := range dedupeSorted(e, frontier) {
		tr := m.sampler.WalkTrace(rng, v)
		trace = append(trace, tr...)
		ns := graph.RankVisits(v, tr, m.sampler.TopK)
		sampled[v] = ns
		hop1 = append(hop1, ns.Neighbors...)
	}
	e.SortInt32(trace)
	hop1 = append(hop1, frontier...)
	layer1Nodes := dedupeSorted(e, hop1)
	trace = trace[:0]
	for _, v := range layer1Nodes {
		if _, ok := sampled[v]; !ok {
			tr := m.sampler.WalkTrace(rng, v)
			trace = append(trace, tr...)
			sampled[v] = graph.RankVisits(v, tr, m.sampler.TopK)
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

	// Layer 1 aggregates into every layer1 node; layer 2 into the frontier.
	for _, v := range layer1Nodes {
		ns := sampled[v]
		for k, nb := range ns.Neighbors {
			b.src1 = append(b.src1, posOf[nb])
			b.dst1 = append(b.dst1, posOf[v])
			b.w1 = append(b.w1, ns.Weights[k])
		}
	}
	for _, v := range dedupeSorted(e, frontier) {
		ns := sampled[v]
		for k, nb := range ns.Neighbors {
			b.src2 = append(b.src2, posOf[nb])
			b.dst2 = append(b.dst2, posOf[v])
			b.w2 = append(b.w2, ns.Weights[k])
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
func (m *PSAGE) convolve(t *autograd.Tape, layer *sageLayer, h *autograd.Var,
	src, dst []int32, w []float32, rows int) *autograd.Var {

	gathered := t.GatherRows(h, src)
	wMat := tensor.New(len(src), h.Value.Dim(1))
	for i, wi := range w {
		row := wMat.Row(i)
		for j := range row {
			row[j] = wi
		}
	}
	weighted := t.Mul(gathered, t.Const(wMat))
	agg := t.ScatterAddRows(rows, weighted, dst)
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
		h = m.convolve(t, m.layer1, h, blk.src1, blk.dst1, blk.w1, len(blk.nodes))
		h = m.convolve(t, m.layer2, h, blk.src2, blk.dst2, blk.w2, len(blk.nodes))

		seedEmb := t.GatherRows(h, blk.seedPos)
		posEmb := t.GatherRows(h, blk.posPos)
		negEmb := t.GatherRows(h, blk.negPos)

		posScore := t.SumCols(t.Mul(seedEmb, posEmb))
		negScore := t.SumCols(t.Mul(seedEmb, negEmb))
		loss := t.MaxMargin(posScore, negScore, 0.5)

		m.env.Step(t, loss, m.Params(), m.opt, 0)
		total += float64(loss.Value.At(0))
	}
	return total / float64(m.batches)
}
