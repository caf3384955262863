package models

import (
	"fmt"

	"gnnmark/internal/autograd"
	"gnnmark/internal/datasets"
	"gnnmark/internal/graph"
	"gnnmark/internal/nn"
	"gnnmark/internal/tensor"
)

// PartitionedDGCN trains DeepGCN with every batched molecule graph split
// across ranks: each rank owns one part of each block-diagonal batch graph,
// exchanges boundary rows before every residual SpMM, normalizes with
// synchronized batch statistics, and pools/classifies on a replicated head
// path. The wrapped single-device DGCN is built from the same seed on every
// rank (full global batches), so weights and batch layout agree everywhere.
type PartitionedDGCN struct {
	inner *DGCN
	env   *Env
	rank  int
	world int
	comm  PartComm

	batches []partDGCNBatch
}

// partDGCNBatch is one rank's view of one global batch.
type partDGCNBatch struct {
	global *dgcnBatch
	plan   *graph.PartitionPlan
	lp     *graph.LocalPart
	feats  *tensor.Tensor // owned feature rows
	gid    []int32        // graph id per owned node
	labels []int32        // per-graph labels (replicated)
}

// NewPartitionedDGCN builds rank's partition of every batch. partition
// labels each batch adjacency into world parts; nil uses PartitionBFS.
// The partitioner must be deterministic and identical across ranks.
func NewPartitionedDGCN(env *Env, ds *datasets.MoleculeSet, cfg DGCNConfig, rank, world int,
	partition func(g *graph.CSR, k int) ([]int32, int)) *PartitionedDGCN {
	if rank < 0 || rank >= world {
		panic(fmt.Sprintf("models: rank %d outside world %d", rank, world))
	}
	if partition == nil {
		partition = graph.PartitionBFS
	}
	inner := NewDGCN(env, ds, cfg)
	w := &PartitionedDGCN{inner: inner, env: env, rank: rank, world: world}
	for bi := range inner.batches {
		b := &inner.batches[bi]
		parts, _ := partition(b.adj, world)
		plan := graph.NewPartitionPlan(b.adj, parts, world)
		lp := plan.Local[rank]
		feats := tensor.New(len(lp.Owned), ds.FeatDim)
		gid := make([]int32, len(lp.Owned))
		for i, g := range lp.Owned {
			copy(feats.Row(i), b.features.Row(int(g)))
			gid[i] = b.graphID[g]
		}
		labels := make([]int32, b.numGraphs)
		for i := range labels {
			labels[i] = int32(b.labels.At(i, 0))
		}
		w.batches = append(w.batches, partDGCNBatch{
			global: b, plan: plan, lp: lp, feats: feats, gid: gid, labels: labels,
		})
	}
	return w
}

// Name implements Workload.
func (w *PartitionedDGCN) Name() string { return w.inner.Name() }

// DatasetName implements Workload.
func (w *PartitionedDGCN) DatasetName() string { return w.inner.DatasetName() }

// DDPCompatible implements Workload.
func (w *PartitionedDGCN) DDPCompatible() bool { return true }

// IterationsPerEpoch implements Workload.
func (w *PartitionedDGCN) IterationsPerEpoch() int { return len(w.batches) }

// Params implements Workload.
func (w *PartitionedDGCN) Params() []*autograd.Param { return w.inner.Params() }

// Optimizer implements Workload: the inner workload's.
func (w *PartitionedDGCN) Optimizer() nn.Optimizer { return w.inner.Optimizer() }

// BindComm implements PartWorkload.
func (w *PartitionedDGCN) BindComm(c PartComm) {
	if c.World() != w.world || c.Rank() != w.rank {
		panic("models: communicator does not match this partition")
	}
	w.comm = c
}

// SyncPlan implements PartWorkload. Embedding and conv gradients are
// per-rank partial sums over owned rows. The head sees a replicated pooled
// tensor and a replicated loss, and SyncBN computes gamma/beta gradients
// over the global population on every rank — all bitwise-identical across
// ranks already, so they synchronize by replication, not reduction.
func (w *PartitionedDGCN) SyncPlan() (partial, replicated []*autograd.Param) {
	m := w.inner
	mods := []nn.Module{m.embed}
	for _, c := range m.convs {
		mods = append(mods, c)
	}
	partial = nn.CollectParams(mods...)
	reps := []nn.Module{m.head}
	for _, bn := range m.norms {
		reps = append(reps, bn)
	}
	return partial, nn.CollectParams(reps...)
}

// LossMode implements PartWorkload: the loss path is replicated.
func (w *PartitionedDGCN) LossMode() PartLossMode { return PartLossReplicated }

// PartInfo implements PartWorkload: sums across the epoch's batches.
func (w *PartitionedDGCN) PartInfo() PartInfo {
	var info PartInfo
	var bf float64
	for i := range w.batches {
		pb := &w.batches[i]
		info.OwnedNodes += len(pb.lp.Owned)
		info.HaloNodes += len(pb.lp.Halo)
		info.EdgeCut += pb.plan.EdgeCut
		bf += pb.lp.BoundaryFraction(pb.plan, w.rank) * float64(len(pb.lp.Owned))
	}
	if info.OwnedNodes > 0 {
		info.BoundaryFraction = bf / float64(info.OwnedNodes)
	}
	return info
}

// TrainEpoch implements Workload: DGCN.TrainEpoch over this rank's parts.
// Collective order per batch — [SyncBN, halo] per layer, one pool gather,
// one gradient synchronization — is identical on every rank.
func (w *PartitionedDGCN) TrainEpoch() float64 {
	if w.comm == nil {
		panic("models: PartitionedDGCN requires BindComm before training")
	}
	m := w.inner
	var total float64
	for bi := range w.batches {
		pb := &w.batches[bi]
		pc := &partComms{c: w.comm, plan: pb.plan, rank: w.rank, lp: pb.lp}
		w.env.iter()
		e := w.env.E
		e.CopyH2D("dgcn.features", pb.feats)
		e.CopyH2DInt("dgcn.graph_id", pb.gid)

		t := autograd.NewTape(e)
		h := m.embed.Forward(t, t.Const(pb.feats))
		for l := range m.convs {
			kind := fmt.Sprintf("dgcn.b%d.l%d", bi, l)
			bn := m.norms[l]
			u := t.ReLU(pc.syncBatchNorm(t, kind+".bn", h,
				t.FromParam(bn.Gamma), t.FromParam(bn.Beta), bn.Eps))
			u = m.convs[l].Forward(t, u)
			u = t.SpMM(pb.lp.Adj, pb.lp.AdjT, pc.haloExtend(t, kind+".halo", u))
			h = t.Add(h, u)
		}
		pooled := pc.meanPoolGlobal(t, fmt.Sprintf("dgcn.b%d.pool", bi), h,
			pb.global.graphID, pb.global.numGraphs)
		logits := m.head.Forward(t, pooled)
		loss := t.CrossEntropy(logits, pb.labels)

		w.env.Step(t, loss, m.Params(), m.opt, 0)
		total += float64(loss.Value.At(0))
	}
	return total / float64(len(w.batches))
}
