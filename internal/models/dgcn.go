package models

import (
	"gnnmark/internal/autograd"
	"gnnmark/internal/datasets"
	"gnnmark/internal/graph"
	"gnnmark/internal/loader"
	"gnnmark/internal/nn"
	"gnnmark/internal/tensor"
)

// DGCN is DeepGCN (Li et al.): a deep residual GCN — pre-activation
// res+ blocks of [BatchNorm -> ReLU -> GCNConv -> residual add] — for
// graph property prediction on batched molecule graphs. The residual adds,
// activations and norms at every one of its many layers make it the most
// element-wise-heavy workload in the suite (Figure 2: ~31%).
type DGCN struct {
	trainer
	ds *datasets.MoleculeSet

	embed *nn.Linear
	convs []*nn.Linear
	norms []*nn.BatchNorm1D
	head  *nn.Linear

	globalBatch int
	batches     []dgcnBatch

	staging *loader.Loader // per-batch feature uploads, staged ahead
}

// dgcnBatch is one block-diagonal batch graph under its view: the whole
// graph, or this rank's partition of it.
type dgcnBatch struct {
	g         graphView
	features  *tensor.Tensor // the view's node rows
	nodeGraph []int32        // graph id per node of the view
	graphID   []int32        // graph id per node of the whole batch graph
	numGraphs int
	labels    []int32
}

// DGCNConfig holds DeepGCN hyperparameters.
type DGCNConfig struct {
	Layers    int // residual GCN blocks (default 14, the paper's deep regime)
	Hidden    int // hidden width (default 64)
	BatchSize int // molecules per batch (default 32)
}

func (c *DGCNConfig) defaults() {
	if c.Layers == 0 {
		c.Layers = 14
	}
	if c.Hidden == 0 {
		c.Hidden = 64
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
}

// NewDGCN builds DeepGCN on a molecule dataset.
func NewDGCN(env *Env, ds *datasets.MoleculeSet, cfg DGCNConfig) *DGCN {
	cfg.defaults()
	m := &DGCN{
		trainer:     trainer{env: env},
		ds:          ds,
		embed:       nn.NewLinear(env.RNG, "dgcn.embed", ds.FeatDim, cfg.Hidden, true),
		head:        nn.NewLinear(env.RNG, "dgcn.head", cfg.Hidden, 2, true),
		globalBatch: cfg.BatchSize,
	}
	mods := []nn.Module{m.embed, m.head}
	for l := 0; l < cfg.Layers; l++ {
		m.convs = append(m.convs, nn.NewLinear(env.RNG, "dgcn.conv", cfg.Hidden, cfg.Hidden, false))
		m.norms = append(m.norms, nn.NewBatchNorm1D("dgcn.bn", cfg.Hidden))
		mods = append(mods, m.convs[l], m.norms[l])
	}
	m.opt = nn.NewAdam(env.E, nn.CollectParams(mods...), 0.003)
	m.prepareBatches()

	// Batch gi re-uploads pre-materialized batch gi % len: the producer
	// stages a copy of its feature block (the H2D payload) and borrows the
	// static graph-id index buffer.
	m.staging = env.NewLoader(func(gi int, b *loader.Batch) {
		src := &m.batches[gi%len(m.batches)]
		b.StageFrom("features", src.features)
		b.PutInts("graph_id", src.nodeGraph)
	})
	return m
}

// prepareBatches materializes block-diagonal batched graphs once; the
// feature tensors are re-transferred every epoch (that is the H2D traffic
// the sparsity study measures).
func (m *DGCN) prepareBatches() {
	// Batches are scheduled over the global batch size; under DDP each
	// device materializes only its shard of every global batch, keeping the
	// iteration count constant (strong scaling).
	n := len(m.ds.Graphs)
	for gstart := 0; gstart < n; gstart += m.globalBatch {
		start, end := m.env.Shard(gstart, min(gstart+m.globalBatch, n))
		gs := m.ds.Graphs[start:end]
		b := graph.NewBatch(gs)
		feats := tensor.New(b.NumNodes(), m.ds.FeatDim)
		row := 0
		for gi := start; gi < end; gi++ {
			f := m.ds.Features[gi]
			for r := 0; r < f.Dim(0); r++ {
				copy(feats.Row(row), f.Row(r))
				row++
			}
		}
		m.batches = append(m.batches, dgcnBatch{
			g:         newWhole(b.Adj),
			features:  feats,
			nodeGraph: b.GraphID,
			graphID:   b.GraphID,
			numGraphs: end - start,
			labels:    m.ds.Labels[start:end],
		})
	}
}

// DDPCompatible implements Workload.
func (m *DGCN) DDPCompatible() bool { return true }

// IterationsPerEpoch implements Workload.
func (m *DGCN) IterationsPerEpoch() int { return len(m.batches) }

// TrainEpoch implements Workload.
func (m *DGCN) TrainEpoch() float64 {
	var total float64
	for _, b := range m.batches {
		lb := m.env.NextBatch(m.staging)
		m.env.iter()
		e := m.env.E
		feats := lb.Tensor("features")
		e.CopyH2D("dgcn.features", feats)
		e.CopyH2DInt("dgcn.graph_id", lb.Ints("graph_id"))

		t := autograd.NewTape(e)
		h := m.embed.Forward(t, t.Const(feats))
		for l := range m.convs {
			// Pre-activation residual block: h += Conv(A, ReLU(BN(h))).
			u := t.ReLU(b.g.batchNorm(t, "bn", l, m.norms[l], h))
			u = b.g.spmm(t, "halo", l, m.convs[l].Forward(t, u))
			h = t.Add(h, u)
		}
		// Global mean pool per graph, then the graph-level head.
		logits := m.head.Forward(t, b.g.meanPool(t, "pool", h, b.graphID, b.numGraphs))
		loss := t.CrossEntropy(logits, b.labels)

		m.env.Step(t, loss, m.opt, 0)
		total += float64(loss.Value.At(0))
	}
	return total / float64(len(m.batches))
}
