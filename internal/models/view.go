package models

import (
	"gnnmark/internal/autograd"
	"gnnmark/internal/graph"
	"gnnmark/internal/nn"
	"gnnmark/internal/tensor"
)

// graphView is the graph-dependent half of a GNN layer — aggregation, in the
// split of Wu et al.'s characterization survey — behind one interface, so a
// model writes its forward once and its dense combination never knows
// whether it trains one device's whole graph or one partition of it. whole
// is the single-device form; *partComms the partitioned one, whose
// operations exchange rows with the peer partitions.
//
// op and layer name the collective a partitioned view issues (layer < 0
// leaves the layer out of the name); whole never spells them out.
type graphView interface {
	// spmm aggregates x over the graph: Â·x.
	spmm(t *autograd.Tape, op string, layer int, x *autograd.Var) *autograd.Var
	// allRows returns every node's row of x, in global order.
	allRows(t *autograd.Tape, op string, x *autograd.Var) *autograd.Var
	// batchNorm normalizes x with statistics over every node of the graph.
	batchNorm(t *autograd.Tape, op string, layer int, bn *nn.BatchNorm1D, x *autograd.Var) *autograd.Var
	// meanPool averages node rows per graph; graphID is the graph of every
	// node of the whole batch graph, and the result is replicated.
	meanPool(t *autograd.Tape, op string, h *autograd.Var, graphID []int32, numGraphs int) *autograd.Var
	// share scales a mean over this view's rows to its share of the mean
	// over every node, so the views' losses sum to the whole graph's.
	share(t *autograd.Tape, loss *autograd.Var) *autograd.Var
	// rows returns the rows of a node-indexed tensor this view owns.
	rows(x *tensor.Tensor) *tensor.Tensor
}

// whole is the single-device view: today's kernels over the full graph,
// with no collective and no extra kernel.
type whole struct{ adj, adjT *graph.CSR }

func (g whole) spmm(t *autograd.Tape, _ string, _ int, x *autograd.Var) *autograd.Var {
	return t.SpMM(g.adj, g.adjT, x)
}

func (whole) allRows(_ *autograd.Tape, _ string, x *autograd.Var) *autograd.Var { return x }

func (whole) batchNorm(t *autograd.Tape, _ string, _ int, bn *nn.BatchNorm1D, x *autograd.Var) *autograd.Var {
	return bn.Forward(t, x)
}

func (whole) meanPool(t *autograd.Tape, _ string, h *autograd.Var, graphID []int32, numGraphs int) *autograd.Var {
	return meanPool(t, h, graphID, numGraphs, h.Value.Dim(1))
}

func (whole) share(_ *autograd.Tape, loss *autograd.Var) *autograd.Var { return loss }

func (whole) rows(x *tensor.Tensor) *tensor.Tensor { return x }

// newWhole is the single-device view of g under GCN normalization.
func newWhole(g *graph.CSR) whole {
	adj := g.NormalizeGCN()
	return whole{adj, adj.Transpose()}
}
