package models

import (
	"gnnmark/internal/autograd"
	"gnnmark/internal/datasets"
	"gnnmark/internal/graph"
	"gnnmark/internal/loader"
	"gnnmark/internal/nn"
	"gnnmark/internal/tensor"
)

// ARGA is the Adversarially Regularized Graph Autoencoder (Pan et al.):
// a two-layer GCN encoder with PReLU activations, an inner-product decoder
// reconstructing the adjacency, and an MLP discriminator pushing the
// embedding distribution toward a Gaussian prior. It trains on the full
// graph every iteration — which is why the paper excludes it from the
// multi-GPU study (§V-E).
type ARGA struct {
	trainer
	ds *datasets.Citation

	g graphView // the whole graph, or this rank's partition of it

	enc1, enc2 *nn.Linear
	alpha1     *autograd.Param // PReLU slopes
	disc1      *nn.Linear
	disc2      *nn.Linear

	embed int

	// What the view trains on: its nodes' features, its rows of the dense
	// reconstruction target (against every node) and its adjacency's
	// coalesce keys.
	feats    *tensor.Tensor
	recon    *tensor.Tensor
	edgeKeys []int32

	batches *loader.Loader // full-graph inputs, staged ahead when pipelined
}

// ARGAConfig holds ARGA's hyperparameters.
type ARGAConfig struct {
	Hidden int // encoder hidden width (default 32)
	Embed  int // embedding width (default 16)
}

func (c *ARGAConfig) defaults() {
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.Embed == 0 {
		c.Embed = 16
	}
}

// NewARGA builds the workload on a citation dataset.
func NewARGA(env *Env, ds *datasets.Citation, cfg ARGAConfig) *ARGA {
	cfg.defaults()
	g := newWhole(ds.Adj)
	a := &ARGA{
		trainer:  trainer{env: env},
		ds:       ds,
		g:        g,
		enc1:     nn.NewLinear(env.RNG, "arga.enc1", ds.Features.Dim(1), cfg.Hidden, true),
		enc2:     nn.NewLinear(env.RNG, "arga.enc2", cfg.Hidden, cfg.Embed, true),
		alpha1:   autograd.NewParam("arga.prelu", tensor.FromSlice([]float32{0.25}, 1)),
		disc1:    nn.NewLinear(env.RNG, "arga.disc1", cfg.Embed, 32, true),
		disc2:    nn.NewLinear(env.RNG, "arga.disc2", 32, 1, true),
		embed:    cfg.Embed,
		feats:    ds.Features,
		edgeKeys: coalesceKeys(g.adj),
	}
	a.opt = nn.NewAdam(env.E, append(nn.CollectParams(a.enc1, a.enc2, a.disc1, a.disc2), a.alpha1), 0.005)

	// Dense reconstruction target (n is small for citation graphs).
	n := g.adj.Rows
	a.recon = tensor.New(n, n)
	for dst := 0; dst < n; dst++ {
		for _, src := range ds.Adj.Neighbors(dst) {
			a.recon.Set(1, dst, int(src))
		}
		a.recon.Set(1, dst, dst)
	}

	// Every iteration uploads the same graph, so the producer is a trivially
	// pure function of the batch index: a staged copy of the feature rows
	// plus the coalesce keys, borrowed — Engine.BeginIteration releases every
	// device block, so no buffer identity crosses an iteration.
	a.batches = env.NewLoader(func(i int, b *loader.Batch) {
		b.StageFrom("features", a.feats)
		b.PutInts("edge_keys", a.edgeKeys)
	})
	return a
}

// coalesceKeys are adj's edge indices as the sort keys of a sparse-tensor
// coalesce: row-major dst*cols+src.
func coalesceKeys(adj *graph.CSR) []int32 {
	keys := make([]int32, 0, adj.NNZ())
	for dst := 0; dst < adj.Rows; dst++ {
		for _, src := range adj.Neighbors(dst) {
			keys = append(keys, int32(dst)*int32(adj.Cols)+src)
		}
	}
	return keys
}

// IterationsPerEpoch implements Workload.
func (a *ARGA) IterationsPerEpoch() int { return 1 }

// encode runs the GCN encoder over the view's graph.
func (a *ARGA) encode(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	h := a.g.spmm(t, "halo1", -1, a.enc1.Forward(t, x))
	h = t.PReLU(h, t.FromParam(a.alpha1))
	return a.g.spmm(t, "halo2", -1, a.enc2.Forward(t, h))
}

// TrainEpoch implements Workload: one reconstruction + adversarial step over
// the view's graph.
func (a *ARGA) TrainEpoch() float64 {
	b := a.env.NextBatch(a.batches)
	a.env.iter()
	e := a.env.E
	// The whole graph's features move host-to-device every iteration: the
	// paper notes the input graph can occupy up to 90% of GPU memory.
	feats := b.Tensor("features")
	e.CopyH2D("arga.features", feats)
	// Sparse-adjacency coalesce: edge indices are sorted on-device before
	// the SpMM pipeline consumes them, as torch sparse tensors do.
	e.SortInt32(b.Ints("edge_keys"))

	t := autograd.NewTape(e)
	z := a.encode(t, t.Const(feats))

	// Inner-product decoder: logits = Z Zᵀ against the adjacency target. A
	// partition decodes its |owned| x n slab against every embedding — the
	// all-to-all the paper's full-graph exclusion is really about.
	logits := t.MatMulTB(z, a.g.allRows(t, "zgather", z))
	reconLoss := t.BCEWithLogits(logits, a.recon)

	// Adversarial regularization: discriminator scores embeddings (fake)
	// against Gaussian samples (real); the encoder is trained to fool it.
	// Generator side (non-saturating loss on the fake batch):
	dFake := a.disc2.Forward(t, t.ReLU(a.disc1.Forward(t, z)))
	genLoss := t.BCEWithLogits(dFake, tensor.Full(1, dFake.Value.Shape()...))

	loss := a.g.share(t, t.Add(reconLoss, t.Scale(genLoss, 0.1)))

	a.env.Step(t, loss, a.opt, 0)

	// Discriminator step on detached embeddings plus prior samples. The
	// prior is drawn for every node whatever the view — the same RNG stream
	// at any world size — and the view keeps its rows.
	t2 := autograd.NewTape(e)
	zDet := t2.Const(z.Value)
	prior := a.g.rows(tensor.Randn(a.env.RNG, 1, a.ds.Adj.Rows, a.embed))
	e.CopyH2D("arga.prior", prior)
	dReal := a.disc2.Forward(t2, t2.ReLU(a.disc1.Forward(t2, t2.Const(prior))))
	dFake2 := a.disc2.Forward(t2, t2.ReLU(a.disc1.Forward(t2, zDet)))
	dLoss := a.g.share(t2, t2.Add(
		t2.BCEWithLogits(dReal, tensor.Full(1, dReal.Value.Shape()...)),
		t2.BCEWithLogits(dFake2, tensor.New(dFake2.Value.Shape()...))))
	// Zero everything so the encoder is not double-stepped with stale grads.
	a.env.Step(t2, dLoss, a.opt, 0)

	return float64(loss.Value.At(0)) + float64(dLoss.Value.At(0))
}
