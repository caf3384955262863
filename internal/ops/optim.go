package ops

import (
	"gnnmark/internal/tensor"
)

// SliceCols2D returns columns [from,to) of x (N,F) as a new (N,to-from)
// tensor; used to split fused gate matrices (LSTM) and attention heads.
func (e *Engine) SliceCols2D(x *tensor.Tensor, from, to int) *tensor.Tensor {
	n, f := check2D("SliceCols2D", x)
	if from < 0 || to > f || from >= to {
		shapePanic("SliceCols2D", x)
	}
	out := tensor.New(n, to-from)
	for i := 0; i < n; i++ {
		copy(out.Row(i), x.Row(i)[from:to])
	}
	e.launchElementWise("slice_cols", 1, out.Size(), []*tensor.Tensor{x}, out)
	return out
}

// PadColsGrad is the backward of SliceCols2D: embeds dy (N,to-from) into a
// zero (N,F) tensor at column offset from.
func (e *Engine) PadColsGrad(dy *tensor.Tensor, f, from int) *tensor.Tensor {
	n, w := check2D("PadColsGrad", dy)
	out := tensor.New(n, f)
	for i := 0; i < n; i++ {
		copy(out.Row(i)[from:from+w], dy.Row(i))
	}
	e.launchElementWise("pad_cols", 1, dy.Size(), []*tensor.Tensor{dy}, out)
	return out
}

// AdamStep applies one Adam update in place, maintaining first/second moment
// estimates m and v; step is the 1-based iteration count for bias
// correction. One fused element-wise kernel.
func (e *Engine) AdamStep(p, g, m, v *tensor.Tensor, lr, beta1, beta2, eps float32, step int) {
	e.be.AdamStep(p.Data(), g.Data(), m.Data(), v.Data(), lr, beta1, beta2, eps, step)
	e.launchElementWise("adam_step", 4, p.Size(), []*tensor.Tensor{p, g, m, v}, p)
}
