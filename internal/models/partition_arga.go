package models

import (
	"fmt"

	"gnnmark/internal/autograd"
	"gnnmark/internal/datasets"
	"gnnmark/internal/graph"
	"gnnmark/internal/nn"
	"gnnmark/internal/tensor"
)

// PartitionedARGA trains one partition of ARGA's full citation graph in
// lockstep with its peers: each rank owns one PartitionBFS part, runs the
// GCN encoder over its owned rows with a halo exchange feeding every SpMM,
// and reconstructs its slab of the adjacency against an all-gathered
// embedding matrix. The wrapped single-device ARGA is built from the same
// seed on every rank, so parameters, the reconstruction target and the RNG
// stream stay in lockstep with single-device training — the partitioned
// run is numerically a re-association of the same computation.
type PartitionedARGA struct {
	inner *ARGA
	env   *Env
	rank  int
	world int

	plan *graph.PartitionPlan
	lp   *graph.LocalPart
	pc   *partComms

	localFeats    *tensor.Tensor
	localRecon    *tensor.Tensor
	localEdgeKeys []int32
	scale         float32 // |owned| / n: folds local means into the global mean
}

// NewPartitionedARGA builds rank's partition of the workload. Every rank
// must construct from an identical Env seed so the wrapped models agree.
// partition overrides the node labeling (nil uses PartitionBFS) for
// edge-cut sensitivity studies; it must be deterministic and identical on
// every rank.
func NewPartitionedARGA(env *Env, ds *datasets.Citation, cfg ARGAConfig, rank, world int,
	partition func(g *graph.CSR, k int) ([]int32, int)) *PartitionedARGA {
	if rank < 0 || rank >= world {
		panic(fmt.Sprintf("models: rank %d outside world %d", rank, world))
	}
	if partition == nil {
		partition = graph.PartitionBFS
	}
	inner := NewARGA(env, ds, cfg)
	parts, _ := partition(inner.adj, world)
	plan := graph.NewPartitionPlan(inner.adj, parts, world)
	lp := plan.Local[rank]

	w := &PartitionedARGA{
		inner: inner,
		env:   env,
		rank:  rank,
		world: world,
		plan:  plan,
		lp:    lp,
		scale: float32(len(lp.Owned)) / float32(plan.N),
	}
	// This rank's H2D payloads: its owned feature rows, its slab of the
	// dense reconstruction target, and the local coalesce keys.
	w.localFeats = tensor.New(len(lp.Owned), ds.Features.Dim(1))
	w.localRecon = tensor.New(len(lp.Owned), plan.N)
	for i, g := range lp.Owned {
		copy(w.localFeats.Row(i), ds.Features.Row(int(g)))
		copy(w.localRecon.Row(i), inner.recon.Row(int(g)))
	}
	for dst := 0; dst < lp.Adj.Rows; dst++ {
		for _, src := range lp.Adj.Neighbors(dst) {
			w.localEdgeKeys = append(w.localEdgeKeys, int32(dst)*int32(lp.Adj.Cols)+src)
		}
	}
	return w
}

// Name implements Workload.
func (w *PartitionedARGA) Name() string { return w.inner.Name() }

// DatasetName implements Workload.
func (w *PartitionedARGA) DatasetName() string { return w.inner.DatasetName() }

// DDPCompatible implements Workload (irrelevant under partitioning).
func (w *PartitionedARGA) DDPCompatible() bool { return false }

// IterationsPerEpoch implements Workload.
func (w *PartitionedARGA) IterationsPerEpoch() int { return 1 }

// Params implements Workload.
func (w *PartitionedARGA) Params() []*autograd.Param { return w.inner.Params() }

// Optimizer implements Workload: the inner workload's.
func (w *PartitionedARGA) Optimizer() nn.Optimizer { return w.inner.Optimizer() }

// BindComm implements PartWorkload.
func (w *PartitionedARGA) BindComm(c PartComm) {
	if c.World() != w.world || c.Rank() != w.rank {
		panic("models: communicator does not match this partition")
	}
	w.pc = &partComms{c: c, plan: w.plan, rank: w.rank, lp: w.lp}
}

// SyncPlan implements PartWorkload: every ARGA gradient is a per-rank
// partial sum over owned rows (encoder, PReLU slope and discriminator
// alike), so everything reduces across ranks.
func (w *PartitionedARGA) SyncPlan() (partial, replicated []*autograd.Param) {
	return w.inner.Params(), nil
}

// LossMode implements PartWorkload: ranks return pre-scaled local means.
func (w *PartitionedARGA) LossMode() PartLossMode { return PartLossSum }

// PartInfo implements PartWorkload.
func (w *PartitionedARGA) PartInfo() PartInfo {
	return PartInfo{
		OwnedNodes:       len(w.lp.Owned),
		HaloNodes:        len(w.lp.Halo),
		EdgeCut:          w.plan.EdgeCut,
		BoundaryFraction: w.lp.BoundaryFraction(w.plan, w.rank),
	}
}

// TrainEpoch implements Workload: the partitioned re-association of
// ARGA.TrainEpoch. Collective order (two halo exchanges, one all-gather,
// two gradient synchronizations) is identical on every rank.
func (w *PartitionedARGA) TrainEpoch() float64 {
	if w.pc == nil {
		panic("models: PartitionedARGA requires BindComm before training")
	}
	w.env.iter()
	e := w.env.E
	a := w.inner
	lp := w.lp
	e.CopyH2D("arga.features", w.localFeats)
	e.SortInt32(w.localEdgeKeys)

	t := autograd.NewTape(e)
	h := a.enc1.Forward(t, t.Const(w.localFeats))
	h = t.SpMM(lp.Adj, lp.AdjT, w.pc.haloExtend(t, "arga.halo1", h))
	h = t.PReLU(h, t.FromParam(a.alpha1))
	h = a.enc2.Forward(t, h)
	z := t.SpMM(lp.Adj, lp.AdjT, w.pc.haloExtend(t, "arga.halo2", h))

	// Inner-product decoder over this rank's slab: logits = Z_p Zᵀ needs
	// every embedding, the all-to-all the paper's full-graph exclusion is
	// really about — but each rank materializes |owned| x n, not n x n.
	zFull := w.pc.allGatherRows(t, "arga.zgather", z)
	logits := t.MatMulTB(z, zFull)
	reconLoss := t.BCEWithLogits(logits, w.localRecon)

	dFake := a.disc2.Forward(t, t.ReLU(a.disc1.Forward(t, z)))
	genLoss := t.BCEWithLogits(dFake, tensor.Full(1, dFake.Value.Shape()...))

	// Local means scaled by |owned|/n sum to the global mean across ranks.
	loss := t.Scale(t.Add(reconLoss, t.Scale(genLoss, 0.1)), w.scale)
	w.env.Step(t, loss, a.Params(), a.opt, 0)

	// Discriminator step. The Gaussian prior is drawn at full size on every
	// rank — same RNG consumption as single-device training, keeping the
	// streams in lockstep — and each rank keeps its owned rows.
	t2 := autograd.NewTape(e)
	zDet := t2.Const(z.Value)
	prior := tensor.Randn(w.env.RNG, 1, w.plan.N, a.embed)
	localPrior := tensor.New(len(lp.Owned), a.embed)
	for i, g := range lp.Owned {
		copy(localPrior.Row(i), prior.Row(int(g)))
	}
	e.CopyH2D("arga.prior", localPrior)
	dReal := a.disc2.Forward(t2, t2.ReLU(a.disc1.Forward(t2, t2.Const(localPrior))))
	dFake2 := a.disc2.Forward(t2, t2.ReLU(a.disc1.Forward(t2, zDet)))
	dLoss := t2.Scale(t2.Add(
		t2.BCEWithLogits(dReal, tensor.Full(1, dReal.Value.Shape()...)),
		t2.BCEWithLogits(dFake2, tensor.New(dFake2.Value.Shape()...))), w.scale)
	w.env.Step(t2, dLoss, a.Params(), a.opt, 0)

	return float64(loss.Value.At(0)) + float64(dLoss.Value.At(0))
}
