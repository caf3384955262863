package models

import (
	"fmt"
	"strings"

	"gnnmark/internal/autograd"
	"gnnmark/internal/graph"
	"gnnmark/internal/nn"
	"gnnmark/internal/tensor"
)

// This file is the workload side of graph-partitioned training (the
// execution strategy ROC/NeuGraph-style systems use for full-graph GNNs
// the paper says DDP cannot scale): the communicator contract the engine
// injects, Partition, and the partitioned graph view, whose collective tape
// operations — halo exchange, all-gather, global mean-pool, synchronized
// batch norm — route gradients across partition boundaries in backward.
//
// Determinism contract: every collective is leaderless. Workers publish
// immutable snapshots through PartComm.Exchange and then each worker
// combines the gathered payloads locally, always iterating ranks (and
// rows) in ascending order — so every worker computes bitwise-identical
// results, reruns are byte-identical, and shared values (BN statistics,
// pooled tensors, summed gradients) need no cross-worker writes at all.

// PartComm is the collective communicator the partitioned engine hands a
// PartWorkload. Exchange publishes this rank's payload under a named
// collective, synchronizes with every peer, and returns all ranks'
// payloads in rank order. wireBytes is the NVLink traffic this rank
// *receives* for the collective (what the timing model charges the halo
// stream). Payloads must be immutable once published; callers must invoke
// the same sequence of collectives on every rank (lockstep). When a peer
// worker fails, Exchange unwinds the calling goroutine via the engine's
// abort panic rather than returning.
type PartComm interface {
	Rank() int
	World() int
	Exchange(kind string, wireBytes uint64, payload any) []any
}

// PartLossMode says how the engine folds per-rank epoch losses into the
// reported loss.
type PartLossMode int

const (
	// PartLossSum: ranks return pre-scaled partial losses (local mean
	// scaled by localRows/globalRows); the global loss is their sum.
	PartLossSum PartLossMode = iota
	// PartLossReplicated: the loss path runs replicated on every rank
	// (identical values); the global loss is rank 0's.
	PartLossReplicated
)

// PartInfo describes one rank's partition for reporting and the overlap
// timing model.
type PartInfo struct {
	OwnedNodes int
	HaloNodes  int
	EdgeCut    int // global edge cut of the plan
	// BoundaryFraction is the share of owned rows some peer reads as
	// halo — what a boundary-first schedule publishes early.
	BoundaryFraction float64
}

// PartWorkload is a workload that trains one partition of a single large
// graph in lockstep with its peers. It extends Workload: TrainEpoch runs
// this rank's partition, with every cross-partition value moving through
// the bound PartComm.
type PartWorkload interface {
	Workload
	// BindComm injects the engine's communicator; called once before
	// training starts.
	BindComm(c PartComm)
	// SyncPlan classifies parameters for the end-of-iteration gradient
	// synchronization: partial parameters hold per-rank partial sums
	// (engine sums them across ranks in rank order); replicated
	// parameters already hold identical full gradients on every rank.
	SyncPlan() (partial, replicated []*autograd.Param)
	// LossMode says how per-rank losses combine.
	LossMode() PartLossMode
	// PartInfo reports this rank's partition shape.
	PartInfo() PartInfo
}

// Partition makes w — a workload built through its registry row on env —
// train rank's part of its graphs in lockstep with world-1 peers. label
// splits each graph into world parts (nil uses graph.PartitionBFS); it must
// be deterministic, because every rank runs it. Every graph view of the model
// becomes a partitioned one, and what the loader uploads becomes the part's:
// owned feature rows, the reconstruction slab, local coalesce keys and
// per-node graph ids. The model is otherwise untouched, so parameters, the
// reconstruction target and the RNG stream stay in lockstep with
// single-device training — partitioned training is a re-association of the
// same computation, at every world size including 1.
//
// Partition refuses a rank outside [0, world), a workload with no
// partitioned form and a pipelined Env, whose loader would read the fields
// Partition swaps from another goroutine.
func Partition(w Workload, env *Env, rank, world int, label func(g *graph.CSR, k int) ([]int32, int)) (PartWorkload, error) {
	if rank < 0 || rank >= world {
		return nil, fmt.Errorf("models: rank %d outside world %d", rank, world)
	}
	name := strings.TrimPrefix(fmt.Sprintf("%T", w), "*models.") // the model type the refusals name
	if env.Pipeline.Depth > 0 {
		return nil, fmt.Errorf("models: %s on a pipelined Env cannot be partitioned", name)
	}
	if label == nil {
		label = graph.PartitionBFS
	}
	p := &partWorkload{Workload: w, rank: rank, world: world}
	part := func(g graphView, prefix string) *partComms {
		adj := g.(whole).adj
		parts, _ := label(adj, world)
		plan := graph.NewPartitionPlan(adj, parts, world)
		pc := &partComms{plan: plan, rank: rank, lp: plan.Local[rank], prefix: prefix}
		p.views = append(p.views, pc)
		return pc
	}
	switch m := w.(type) {
	case *ARGA:
		// Every ARGA gradient is a per-rank partial sum over owned rows, and
		// ranks return pre-scaled local means.
		pc := part(m.g, "arga")
		m.g, m.feats, m.recon, m.edgeKeys = pc, pc.rows(m.feats), pc.rows(m.recon), coalesceKeys(pc.lp.Adj)
		p.partial, p.loss = m.Params(), PartLossSum
	case *DGCN:
		for bi := range m.batches {
			b := &m.batches[bi]
			pc := part(b.g, fmt.Sprintf("dgcn.b%d", bi))
			b.g, b.features, b.nodeGraph = pc, pc.rows(b.features), make([]int32, len(pc.lp.Owned))
			for i, g := range pc.lp.Owned {
				b.nodeGraph[i] = b.graphID[g]
			}
		}
		// Embedding and conv gradients are per-rank partial sums over owned
		// rows. The head sees a replicated pooled tensor and loss, and SyncBN
		// computes gamma/beta gradients over the global population on every
		// rank: both are bitwise-identical across ranks already, so they
		// synchronize by replication, not reduction.
		mods := []nn.Module{m.embed}
		reps := []nn.Module{m.head}
		for l := range m.convs {
			mods, reps = append(mods, m.convs[l]), append(reps, m.norms[l])
		}
		p.partial, p.replicated, p.loss = nn.CollectParams(mods...), nn.CollectParams(reps...), PartLossReplicated
	default:
		return nil, fmt.Errorf("models: %s has no partitioned form", name)
	}
	return p, nil
}

// partWorkload is a workload under Partition: the model trains through its
// own TrainEpoch, and this adds what the partitioned engine asks of it.
type partWorkload struct {
	Workload
	rank, world         int
	views               []*partComms
	partial, replicated []*autograd.Param
	loss                PartLossMode
}

// BindComm implements PartWorkload.
func (p *partWorkload) BindComm(c PartComm) {
	if c.World() != p.world || c.Rank() != p.rank {
		panic("models: communicator does not match this partition")
	}
	for _, pc := range p.views {
		pc.c = c
	}
}

// SyncPlan implements PartWorkload.
func (p *partWorkload) SyncPlan() (partial, replicated []*autograd.Param) {
	return p.partial, p.replicated
}

// LossMode implements PartWorkload.
func (p *partWorkload) LossMode() PartLossMode { return p.loss }

// PartInfo implements PartWorkload: sums over the model's views, the
// boundary fraction weighted by owned rows.
func (p *partWorkload) PartInfo() PartInfo {
	var info PartInfo
	var bf float64
	for _, pc := range p.views {
		info.OwnedNodes += len(pc.lp.Owned)
		info.HaloNodes += len(pc.lp.Halo)
		info.EdgeCut += pc.plan.EdgeCut
		bf += pc.lp.BoundaryFraction(pc.plan, p.rank) * float64(len(pc.lp.Owned))
	}
	if info.OwnedNodes > 0 {
		info.BoundaryFraction = bf / float64(info.OwnedNodes)
	}
	return info
}

// partComms is the partitioned graph view: the communicator plus one
// partition plan's local part. Its operations are collective — every rank
// issues the same sequence — and name each collective after the view's
// prefix.
type partComms struct {
	c      PartComm
	plan   *graph.PartitionPlan
	rank   int
	lp     *graph.LocalPart
	prefix string
}

// kind names one collective: the prefix, the layer when there is one, op.
func (pc *partComms) kind(op string, layer int) string {
	if layer < 0 {
		return pc.prefix + "." + op
	}
	return fmt.Sprintf("%s.l%d.%s", pc.prefix, layer, op)
}

// spmm is the partitioned SpMM over the extended input: owned rows of x
// followed by ghost rows pulled from their owners. Backward publishes the
// ghost-row gradients and deposits the slices peers pulled from this rank
// back into x — the reverse halo exchange.
func (pc *partComms) spmm(t *autograd.Tape, op string, layer int, x *autograd.Var) *autograd.Var {
	kind := pc.kind(op, layer)
	lp := pc.lp
	owned := len(lp.Owned)
	dim := x.Value.Dim(1)
	vals := pc.c.Exchange(kind, lp.HaloBytes(dim), x.Value)

	ext := tensor.New(lp.Ext(), dim)
	for i := 0; i < owned; i++ {
		copy(ext.Row(i), x.Value.Row(i))
	}
	for q, v := range vals {
		if q == pc.rank {
			continue
		}
		peer := v.(*tensor.Tensor)
		rt := lp.In[q]
		for i := range rt.Src {
			copy(ext.Row(int(rt.Dst[i])), peer.Row(int(rt.Src[i])))
		}
	}
	// Backward receive volume: the rows peers ghost from this rank.
	var bwdBytes uint64
	for q, other := range pc.plan.Local {
		if q != pc.rank {
			bwdBytes += uint64(len(other.In[pc.rank].Src)) * uint64(dim) * 4
		}
	}
	halo := t.Node(ext, func(dy *tensor.Tensor) {
		// Reverse exchange: every rank publishes its extended-row gradient;
		// each rank folds the ghost slices peers pulled from it into its
		// owned gradient, on top of the pass-through owned block.
		grads := pc.c.Exchange(kind+".bwd", bwdBytes, dy)
		dx := tensor.NewPooled(owned, dim)
		for i := 0; i < owned; i++ {
			copy(dx.Row(i), dy.Row(i))
		}
		for q, g := range grads {
			if q == pc.rank {
				continue
			}
			peer := g.(*tensor.Tensor)
			rt := pc.plan.Local[q].In[pc.rank]
			for i := range rt.Src {
				dst, src := dx.Row(int(rt.Src[i])), peer.Row(int(rt.Dst[i]))
				for j := range dst {
					dst[j] += src[j]
				}
			}
		}
		x.Accum(dx)
		tensor.Recycle(dx)
	})
	return t.SpMM(lp.Adj, lp.AdjT, halo)
}

// allRows materializes the full n-row tensor from every rank's owned rows
// (ARGA's inner-product decoder reads all embeddings). Backward reduces the
// full-gradient copies across ranks in rank order — identical on every rank —
// and deposits this rank's owned slice into x.
func (pc *partComms) allRows(t *autograd.Tape, op string, x *autograd.Var) *autograd.Var {
	kind := pc.kind(op, -1)
	lp := pc.lp
	dim := x.Value.Dim(1)
	remote := uint64(pc.plan.N-len(lp.Owned)) * uint64(dim) * 4
	full := pc.assembleFull(kind, remote, x.Value)
	return t.Node(full, func(dy *tensor.Tensor) {
		grads := pc.c.Exchange(kind+".bwd", remote, dy)
		dx := tensor.NewPooled(len(lp.Owned), dim)
		// Sum every rank's full dZ in rank order, keeping only owned rows:
		// the same association on every rank, so the reduced gradient is
		// bitwise-identical cluster-wide.
		for _, g := range grads {
			peer := g.(*tensor.Tensor)
			for i, gl := range lp.Owned {
				dst, src := dx.Row(i), peer.Row(int(gl))
				for j := range dst {
					dst[j] += src[j]
				}
			}
		}
		x.Accum(dx)
		tensor.Recycle(dx)
	})
}

// share scales a local mean by |owned|/n: the ranks' losses then sum to the
// global mean.
func (pc *partComms) share(t *autograd.Tape, loss *autograd.Var) *autograd.Var {
	return t.Scale(loss, float32(len(pc.lp.Owned))/float32(pc.plan.N))
}

// rows copies this rank's owned rows of a node-indexed tensor.
func (pc *partComms) rows(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(len(pc.lp.Owned), x.Dim(1))
	for i, g := range pc.lp.Owned {
		copy(out.Row(i), x.Row(int(g)))
	}
	return out
}

// assembleFull exchanges every rank's owned rows of a value and gathers them
// into global row order.
func (pc *partComms) assembleFull(kind string, wireBytes uint64, local *tensor.Tensor) *tensor.Tensor {
	return pc.globalRows(pc.c.Exchange(kind, wireBytes, local), func(v any) *tensor.Tensor { return v.(*tensor.Tensor) })
}

// globalRows copies each rank's owned rows, picked out of its payload by of,
// to their global positions.
func (pc *partComms) globalRows(vals []any, of func(any) *tensor.Tensor) *tensor.Tensor {
	full := tensor.New(pc.plan.N, of(vals[0]).Dim(1))
	for q, v := range vals {
		peer := of(v)
		for i, g := range pc.plan.Local[q].Owned {
			copy(full.Row(int(g)), peer.Row(i))
		}
	}
	return full
}

// meanPool is the partitioned global mean pool: scatter-add every
// node row into its graph's row, divided by node counts. The reduction
// runs over the *global* row order (bitwise-identical to the
// single-device ScatterAddRows kernel), producing a replicated pooled
// tensor on every rank; backward is a purely local gather from the
// replicated upstream gradient.
//
// Wire accounting is honest to a real implementation — partial per-graph
// sums allreduced ring-style — not to the simulation shortcut of
// gathering full rows.
func (pc *partComms) meanPool(t *autograd.Tape, op string, h *autograd.Var, graphID []int32, numGraphs int) *autograd.Var {
	lp := pc.lp
	dim := h.Value.Dim(1)
	world := pc.c.World()
	ring := uint64(0)
	if world > 1 {
		payload := uint64(numGraphs) * uint64(dim) * 4
		ring = 2 * uint64(world-1) * payload / uint64(world)
	}
	full := pc.assembleFull(pc.kind(op, -1), ring, h.Value)

	pooled := tensor.New(numGraphs, dim)
	t.E.Backend().ScatterAddRows(pooled.Data(), full.Data(), graphID, dim)
	counts := make([]float32, numGraphs)
	for _, g := range graphID {
		counts[g]++
	}
	for gi := 0; gi < numGraphs; gi++ {
		row := pooled.Row(gi)
		inv := 1 / counts[gi]
		for j := range row {
			row[j] *= inv
		}
	}
	return t.Node(pooled, func(dy *tensor.Tensor) {
		// dy is replicated (the head path runs identically on every
		// rank): each owned node gathers its graph's gradient locally.
		dx := tensor.NewPooled(len(lp.Owned), dim)
		for i, g := range lp.Owned {
			gi := int(graphID[g])
			dst, src := dx.Row(i), dy.Row(gi)
			inv := 1 / counts[gi]
			for j := range dst {
				dst[j] = src[j] * inv
			}
		}
		h.Accum(dx)
		tensor.Recycle(dx)
	})
}

// bnPair is the backward payload of batchNorm: this rank's upstream
// gradient and normalized activations.
type bnPair struct{ dy, xhat *tensor.Tensor }

// batchNorm is synchronized batch normalization (SyncBN) across partitions:
// statistics are computed over the global row population, so the
// normalized activations — and the gamma/beta gradients — are
// bitwise-identical to single-device training: the combine runs the
// backend's own stats and backward kernels over the rows assembled in global
// order. Local stats/backward kernels are still launched so the device
// timeline carries SyncBN's compute cost; their results are discarded in
// favor of the global ones.
//
// Wire accounting models what NCCL SyncBN moves — two stats vectors per
// direction per peer — not the full-row gather the simulation uses.
func (pc *partComms) batchNorm(t *autograd.Tape, op string, layer int, bn *nn.BatchNorm1D, x *autograd.Var) *autograd.Var {
	gamma, beta, eps := t.FromParam(bn.Gamma), t.FromParam(bn.Beta), bn.Eps
	kind := pc.kind(op, layer)
	lp := pc.lp
	e := t.E
	n := pc.plan.N
	f := x.Value.Dim(1)
	statsBytes := uint64(pc.c.World()-1) * uint64(2*f) * 4
	full := pc.assembleFull(kind, statsBytes, x.Value)

	// Local stats kernel for timing realism; values replaced by global.
	e.BatchNormStats(x.Value)
	mean, variance := tensor.New(f), tensor.New(f)
	e.Backend().BatchNormStats(full.Data(), mean.Data(), variance.Data(), n, f)

	out := e.BatchNormApply(x.Value, mean, variance, gamma.Value, beta.Value, eps)
	xhat := autograd.Standardize(x.Value, mean, variance, eps)
	rows := len(lp.Owned)

	return t.Node(out, func(dy *tensor.Tensor) {
		grads := pc.c.Exchange(kind+".bwd", statsBytes, bnPair{dy: dy, xhat: xhat})
		// Local backward kernel for timing realism; values discarded.
		e.BatchNormBackward(xhat, dy, variance, gamma.Value, eps)

		fullDy := pc.globalRows(grads, func(g any) *tensor.Tensor { return g.(bnPair).dy })
		fullXhat := pc.globalRows(grads, func(g any) *tensor.Tensor { return g.(bnPair).xhat })
		// The single-device kernel over the global rows: dgamma and dbeta are
		// its sums, dx its owned rows.
		fullDx := tensor.New(n, f)
		dgamma := tensor.NewPooled(f)
		dbeta := tensor.NewPooled(f)
		e.Backend().BatchNormBackward(fullXhat.Data(), fullDy.Data(), variance.Data(), gamma.Value.Data(),
			fullDx.Data(), dgamma.Data(), dbeta.Data(), n, f, eps)
		dx := tensor.NewPooled(rows, f)
		for i, g := range lp.Owned {
			copy(dx.Row(i), fullDx.Row(int(g)))
		}
		x.Accum(dx)
		gamma.Accum(dgamma)
		beta.Accum(dbeta)
		tensor.Recycle(dx)
		tensor.Recycle(dgamma)
		tensor.Recycle(dbeta)
	})
}
