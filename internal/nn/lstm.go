package nn

import (
	"math/rand"

	"gnnmark/internal/autograd"
	"gnnmark/internal/tensor"
)

// LSTMCell is a standard fused-gate LSTM cell: gates = xWx + hWh + b with
// the i,f,g,o gate layout.
type LSTMCell struct {
	Wx, Wh, B *autograd.Param
}

// NewLSTMCell builds an LSTM cell mapping in -> hidden.
func NewLSTMCell(rng *rand.Rand, name string, in, hidden int) *LSTMCell {
	mustPositive("hidden", hidden)
	return &LSTMCell{
		Wx: autograd.NewParam(name+".wx", glorot(rng, in, 4*hidden, in, 4*hidden)),
		Wh: autograd.NewParam(name+".wh", glorot(rng, hidden, 4*hidden, hidden, 4*hidden)),
		B:  autograd.NewParam(name+".b", tensor.New(4*hidden)),
	}
}

// Params implements Module.
func (c *LSTMCell) Params() []*autograd.Param {
	return []*autograd.Param{c.Wx, c.Wh, c.B}
}

// Step advances the cell one timestep: returns (h', c'). Two gate GEMMs
// feed one fused pointwise cell kernel, as torch.nn.LSTMCell lowers.
func (c *LSTMCell) Step(t *autograd.Tape, x, h, cell *autograd.Var) (*autograd.Var, *autograd.Var) {
	gates := t.AddBias(
		t.Add(t.MatMul(x, t.FromParam(c.Wx)), t.MatMul(h, t.FromParam(c.Wh))),
		t.FromParam(c.B))
	return t.LSTMCell(gates, cell)
}

// ChildSumTreeLSTMCell is the Tai et al. child-sum Tree-LSTM cell used by
// the TLSTM workload: i,o,u gates condition on the sum of child hidden
// states, and each child gets its own forget gate.
type ChildSumTreeLSTMCell struct {
	WxIOU, WhIOU, BIOU *autograd.Param // fused i,o,u
	WxF, WhF, BF       *autograd.Param // per-child forget gate
	Hidden             int
}

// NewChildSumTreeLSTMCell builds a child-sum Tree-LSTM cell.
func NewChildSumTreeLSTMCell(rng *rand.Rand, name string, in, hidden int) *ChildSumTreeLSTMCell {
	mustPositive("hidden", hidden)
	return &ChildSumTreeLSTMCell{
		WxIOU:  autograd.NewParam(name+".wx_iou", glorot(rng, in, 3*hidden, in, 3*hidden)),
		WhIOU:  autograd.NewParam(name+".wh_iou", glorot(rng, hidden, 3*hidden, hidden, 3*hidden)),
		BIOU:   autograd.NewParam(name+".b_iou", tensor.New(3*hidden)),
		WxF:    autograd.NewParam(name+".wx_f", glorot(rng, in, hidden, in, hidden)),
		WhF:    autograd.NewParam(name+".wh_f", glorot(rng, hidden, hidden, hidden, hidden)),
		BF:     autograd.NewParam(name+".b_f", tensor.Full(1, hidden)), // forget bias 1
		Hidden: hidden,
	}
}

// Params implements Module.
func (c *ChildSumTreeLSTMCell) Params() []*autograd.Param {
	return []*autograd.Param{c.WxIOU, c.WhIOU, c.BIOU, c.WxF, c.WhF, c.BF}
}

// NodeStep computes (h, c) for a batch of nodes given their inputs x
// (N,in), the summed child hidden states hSum (N,hidden), and the summed
// forget-gated child cells cTilde (N,hidden). Leaves pass zeros for both.
func (c *ChildSumTreeLSTMCell) NodeStep(t *autograd.Tape, x, hSum, cTilde *autograd.Var) (*autograd.Var, *autograd.Var) {
	iou := t.AddBias(
		t.Add(t.MatMul(x, t.FromParam(c.WxIOU)), t.MatMul(hSum, t.FromParam(c.WhIOU))),
		t.FromParam(c.BIOU))
	hd := c.Hidden
	i := t.Sigmoid(t.SliceCols(iou, 0, hd))
	o := t.Sigmoid(t.SliceCols(iou, hd, 2*hd))
	u := t.Tanh(t.SliceCols(iou, 2*hd, 3*hd))
	cell := t.Add(cTilde, t.Mul(i, u))
	h := t.Mul(o, t.Tanh(cell))
	return h, cell
}

// ChildForget computes the forget-gated child cell contributions: for child
// states hChild,cChild (M,hidden) under parent inputs xParent (M,in)
// (repeated per child), returns f*cChild to be scatter-summed per parent.
func (c *ChildSumTreeLSTMCell) ChildForget(t *autograd.Tape, xParent, hChild, cChild *autograd.Var) *autograd.Var {
	f := t.Sigmoid(t.AddBias(
		t.Add(t.MatMul(xParent, t.FromParam(c.WxF)), t.MatMul(hChild, t.FromParam(c.WhF))),
		t.FromParam(c.BF)))
	return t.Mul(f, cChild)
}
