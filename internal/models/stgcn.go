package models

import (
	"gnnmark/internal/autograd"
	"gnnmark/internal/datasets"
	"gnnmark/internal/graph"
	"gnnmark/internal/loader"
	"gnnmark/internal/nn"
)

// STGCN is the Spatio-Temporal Graph Convolutional Network (Yu et al.) for
// traffic forecasting: ST-Conv blocks of [temporal gated conv -> spatial
// graph conv -> temporal gated conv] followed by an output temporal conv.
// The (1,Kt) temporal convolutions over (batch, channels, sensors, time)
// dominate its execution (Figure 2: ~60% Conv).
type STGCN struct {
	trainer
	ds *datasets.Traffic

	adj, adjT *graph.CSR

	blocks []*stBlock
	outT   *nn.Conv2D
	outFC  *nn.Conv2D

	window, horizon int
	batchSize       int
	starts          []int

	batches *loader.Loader // window/target minibatches, staged ahead
}

type stBlock struct {
	t1, t2 *nn.Conv2D // temporal convs producing 2*ch channels for GLU
	spat   *nn.Linear // spatial graph-conv weight
	bn     *nn.BatchNorm2D
	chOut  int
}

// stgcnKt is the temporal kernel size.
const stgcnKt = 3

// STGCNConfig holds STGCN hyperparameters.
type STGCNConfig struct {
	Window    int // input timesteps (default 12)
	Horizon   int // forecast offset (default 3)
	Channels  int // block channel width (default 24)
	BatchSize int // windows per batch (default 8)
	Batches   int // batches per epoch (default 8)
}

func (c *STGCNConfig) defaults() {
	if c.Window == 0 {
		c.Window = 12
	}
	if c.Horizon == 0 {
		c.Horizon = 3
	}
	if c.Channels == 0 {
		c.Channels = 24
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.Batches == 0 {
		c.Batches = 8
	}
}

// NewSTGCN builds the workload on a traffic dataset.
func NewSTGCN(env *Env, ds *datasets.Traffic, cfg STGCNConfig) *STGCN {
	cfg.defaults()
	norm := ds.Adj.NormalizeGCN()
	m := &STGCN{
		trainer:   trainer{env: env},
		ds:        ds,
		adj:       norm,
		adjT:      norm.Transpose(),
		window:    cfg.Window,
		horizon:   cfg.Horizon,
		batchSize: cfg.BatchSize,
	}
	ch := cfg.Channels
	m.blocks = []*stBlock{
		newSTBlock(env, "stgcn.b1", 1, ch, stgcnKt),
		newSTBlock(env, "stgcn.b2", ch, ch, stgcnKt),
	}
	// Each block consumes 2*(Kt-1) timesteps; collapse the rest.
	remain := cfg.Window - 4*(stgcnKt-1)
	if remain < 1 {
		panic("models: STGCN window too small for kernel size")
	}
	m.outT = nn.NewConv2D(env.RNG, "stgcn.outT", ch, ch, 1, remain)
	m.outFC = nn.NewConv2D(env.RNG, "stgcn.outFC", ch, 1, 1, 1)
	mods := []nn.Module{m.outT, m.outFC}
	for _, b := range m.blocks {
		mods = append(mods, b.t1, b.spat, b.t2, b.bn)
	}
	m.opt = nn.NewAdam(env.E, nn.CollectParams(mods...), 0.002)

	maxStart := ds.Series.Dim(0) - cfg.Window - cfg.Horizon
	total := cfg.Batches * m.batchSize
	for i := 0; i < total; i++ {
		m.starts = append(m.starts, env.RNG.Intn(maxStart))
	}

	// Batch gi of the endless sequence is epoch-iteration gi % iters: its
	// window starts are fixed at construction, so assembling the (B,1,S,T)
	// window and (B,S) target tensors is a pure function of the index.
	iters := m.IterationsPerEpoch()
	sensors := ds.Sensors
	m.batches = env.NewLoader(func(gi int, b *loader.Batch) {
		it := gi % iters
		lo, hi := env.Shard(it*m.batchSize, (it+1)*m.batchSize)
		bsz := hi - lo
		x := b.Stage("window", bsz, 1, sensors, m.window)
		y := b.Stage("target", bsz, sensors)
		for bi := 0; bi < bsz; bi++ {
			start := m.starts[lo+bi]
			for si := 0; si < sensors; si++ {
				for ti := 0; ti < m.window; ti++ {
					x.Set(ds.Series.At(start+ti, si), bi, 0, si, ti)
				}
				y.Set(ds.Series.At(start+m.window+m.horizon-1, si), bi, si)
			}
		}
	})
	return m
}

func newSTBlock(env *Env, name string, cin, ch, kt int) *stBlock {
	return &stBlock{
		t1:    nn.NewConv2D(env.RNG, name+".t1", cin, 2*ch, 1, kt),
		spat:  nn.NewLinear(env.RNG, name+".spat", ch, ch, false),
		t2:    nn.NewConv2D(env.RNG, name+".t2", ch, 2*ch, 1, kt),
		bn:    nn.NewBatchNorm2D(name+".bn", ch),
		chOut: ch,
	}
}

// DDPCompatible implements Workload.
func (m *STGCN) DDPCompatible() bool { return true }

// IterationsPerEpoch implements Workload.
func (m *STGCN) IterationsPerEpoch() int { return len(m.starts) / m.batchSize }

// gatedTemporalConv applies a GLU temporal convolution: the conv produces
// 2*ch channels consumed by a single fused GLU kernel, as F.glu lowers.
func gatedTemporalConv(t *autograd.Tape, conv *nn.Conv2D, x *autograd.Var, ch int) *autograd.Var {
	return t.GLU4D(conv.Forward(t, x))
}

// spatialConv applies the graph convolution across sensors at every
// (batch, channel, time) coordinate: SpMM over sensor rows, then a linear
// channel mix with ReLU.
func (m *STGCN) spatialConv(t *autograd.Tape, blk *stBlock, x *autograd.Var) *autograd.Var {
	b, ch, s, tw := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2), x.Value.Dim(3)
	// (B,C,S,T) -> (S, B*C*T) so SpMM aggregates over sensors.
	sp := t.Reshape(t.Permute4D(x, [4]int{2, 0, 1, 3}), s, b*ch*tw)
	agg := t.SpMM(m.adj, m.adjT, sp)
	// (S,B,C,T) -> (B,S,T,C) rows for the channel mix.
	back := t.Reshape(agg, s, b, ch, tw)
	rows := t.Reshape(t.Permute4D(back, [4]int{1, 0, 3, 2}), b*s*tw, ch)
	mixed := t.ReLU(blk.spat.Forward(t, rows))
	// (B,S,T,C) -> (B,C,S,T).
	return t.Permute4D(t.Reshape(mixed, b, s, tw, ch), [4]int{0, 3, 1, 2})
}

// TrainEpoch implements Workload.
func (m *STGCN) TrainEpoch() float64 {
	var total float64
	iters := m.IterationsPerEpoch()
	sensors := m.ds.Sensors
	for it := 0; it < iters; it++ {
		// Executed DDP splits each global batch of window starts across
		// replica ranks (inside the producer); single-device runs see
		// [it*B, (it+1)*B) unchanged.
		b := m.env.NextBatch(m.batches)
		m.env.iter()
		e := m.env.E

		x, y := b.Tensor("window"), b.Tensor("target")
		bsz := x.Dim(0)
		e.CopyH2D("stgcn.window", x)
		e.CopyH2D("stgcn.target", y)

		t := autograd.NewTape(e)
		h := t.Const(x)
		for _, blk := range m.blocks {
			h = gatedTemporalConv(t, blk.t1, h, blk.chOut)
			h = m.spatialConv(t, blk, h)
			h = gatedTemporalConv(t, blk.t2, h, blk.chOut)
			h = blk.bn.Forward(t, h)
		}
		h = m.outT.Forward(t, h)  // (B, ch, S, 1)
		h = m.outFC.Forward(t, h) // (B, 1, S, 1)
		pred := t.Reshape(h, bsz, sensors)
		loss := t.MSE(pred, y)

		m.env.Step(t, loss, m.opt, 0)
		total += float64(loss.Value.At(0))
	}
	return total / float64(iters)
}
