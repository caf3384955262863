package autograd

import (
	"math"
	"math/rand"

	"gnnmark/internal/graph"
	"gnnmark/internal/ops"
	"gnnmark/internal/tensor"
)

// empty returns an arena tensor the caller overwrites in full.
func (t *Tape) empty(shape ...int) *tensor.Tensor { return t.E.Arena().Empty(shape...) }

// MatMul returns a @ b with gradients dA = dY @ Bᵀ and dB = Aᵀ @ dY.
func (t *Tape) MatMul(a, b *Var) *Var {
	out := t.E.MatMul(a.Value, b.Value)
	return t.node(out, a.needGrad || b.needGrad, func(dy *tensor.Tensor) {
		if a.needGrad {
			a.accum(t.E.MatMulTB(dy, b.Value))
		}
		if b.needGrad {
			b.accum(t.E.MatMulTA(a.Value, dy))
		}
	})
}

// MatMulTB returns a @ bᵀ (attention scores, inner-product decoders).
func (t *Tape) MatMulTB(a, b *Var) *Var {
	out := t.E.MatMulTB(a.Value, b.Value)
	return t.node(out, a.needGrad || b.needGrad, func(dy *tensor.Tensor) {
		if a.needGrad {
			a.accum(t.E.MatMul(dy, b.Value)) // dA = dY @ B
		}
		if b.needGrad {
			b.accum(t.E.MatMulTA(dy, a.Value)) // dB = dYᵀ @ A
		}
	})
}

// SpMM aggregates x through the CSR adjacency fwd; bwd must be fwd's
// transpose (precompute once per graph with CSR.Transpose).
func (t *Tape) SpMM(fwd, bwd *graph.CSR, x *Var) *Var {
	out := t.E.SpMM(fwd, x.Value)
	return t.node(out, x.needGrad, func(dy *tensor.Tensor) {
		if x.needGrad {
			x.accum(t.E.SpMM(bwd, dy))
		}
	})
}

// Conv2D convolves x (N,C,H,W) with filters w.
func (t *Tape) Conv2D(x, w *Var, strideH, strideW, padH, padW int) *Var {
	out := t.E.Conv2D(x.Value, w.Value, strideH, strideW, padH, padW)
	return t.node(out, x.needGrad || w.needGrad, func(dy *tensor.Tensor) {
		if x.needGrad {
			x.accum(t.E.Conv2DGradInput(dy, w.Value, x.Value.Shape(), strideH, strideW, padH, padW))
		}
		if w.needGrad {
			w.accum(t.E.Conv2DGradWeight(x.Value, dy, w.Value.Shape(), strideH, strideW, padH, padW))
		}
	})
}

// AddChannelBias adds a per-channel bias to a (N,C,H,W) tensor.
func (t *Tape) AddChannelBias(x, bias *Var) *Var {
	out := t.E.AddChannelBias(x.Value, bias.Value)
	return t.node(out, x.needGrad || bias.needGrad, func(dy *tensor.Tensor) {
		x.accum(dy)
		if bias.needGrad {
			bias.accum(t.E.ChannelBiasGrad(dy))
		}
	})
}

// Add returns a + b.
func (t *Tape) Add(a, b *Var) *Var {
	out := t.E.Add(a.Value, b.Value)
	return t.node(out, a.needGrad || b.needGrad, func(dy *tensor.Tensor) {
		a.accum(dy)
		b.accum(dy)
	})
}

// Sub returns a - b.
func (t *Tape) Sub(a, b *Var) *Var {
	out := t.E.Sub(a.Value, b.Value)
	return t.node(out, a.needGrad || b.needGrad, func(dy *tensor.Tensor) {
		a.accum(dy)
		if b.needGrad {
			b.accum(t.E.Scale(dy, -1))
		}
	})
}

// Mul returns the Hadamard product a * b.
func (t *Tape) Mul(a, b *Var) *Var {
	out := t.E.Mul(a.Value, b.Value)
	return t.node(out, a.needGrad || b.needGrad, func(dy *tensor.Tensor) {
		if a.needGrad {
			a.accum(t.E.Mul(dy, b.Value))
		}
		if b.needGrad {
			b.accum(t.E.Mul(dy, a.Value))
		}
	})
}

// Scale returns a * s.
func (t *Tape) Scale(a *Var, s float32) *Var {
	out := t.E.Scale(a.Value, s)
	return t.node(out, a.needGrad, func(dy *tensor.Tensor) {
		a.accum(t.E.Scale(dy, s))
	})
}

// AddBias adds a bias row vector to each row of x (N,F).
func (t *Tape) AddBias(x, bias *Var) *Var {
	out := t.E.AddBiasRows(x.Value, bias.Value)
	return t.node(out, x.needGrad || bias.needGrad, func(dy *tensor.Tensor) {
		x.accum(dy)
		if bias.needGrad {
			bias.accum(t.E.SumRows(dy))
		}
	})
}

// ReLU applies max(x, 0).
func (t *Tape) ReLU(x *Var) *Var {
	out := t.E.ReLU(x.Value)
	return t.node(out, x.needGrad, func(dy *tensor.Tensor) {
		x.accum(t.E.ReLUBackward(x.Value, dy))
	})
}

// PReLU applies x>0 ? x : alpha*x with a trainable scalar alpha (a (1)
// tensor Var), as used by ARGA's encoder.
func (t *Tape) PReLU(x, alpha *Var) *Var {
	a := alpha.Value.At(0)
	out := t.E.PReLU(x.Value, a)
	return t.node(out, x.needGrad || alpha.needGrad, func(dy *tensor.Tensor) {
		if x.needGrad {
			dx := t.empty(dy.Shape()...)
			xd, dd, gd := x.Value.Data(), dx.Data(), dy.Data()
			for i := range dd {
				dd[i] = gd[i]
				if xd[i] <= 0 {
					dd[i] *= a
				}
			}
			x.accum(dx)
		}
		if alpha.needGrad {
			var s float64
			xd, dd := x.Value.Data(), dy.Data()
			for i := range dd {
				if xd[i] <= 0 {
					s += float64(dd[i]) * float64(xd[i])
				}
			}
			da := t.empty(1)
			da.Data()[0] = float32(s)
			alpha.accum(da)
		}
	})
}

// Sigmoid applies the logistic function.
func (t *Tape) Sigmoid(x *Var) *Var {
	out := t.E.Sigmoid(x.Value)
	return t.node(out, x.needGrad, func(dy *tensor.Tensor) {
		dx := t.empty(out.Shape()...)
		od, dd, xd := out.Data(), dy.Data(), dx.Data()
		for i := range xd {
			xd[i] = dd[i] * od[i] * (1 - od[i])
		}
		x.accum(dx)
	})
}

// Tanh applies the hyperbolic tangent.
func (t *Tape) Tanh(x *Var) *Var {
	out := t.E.Tanh(x.Value)
	return t.node(out, x.needGrad, func(dy *tensor.Tensor) {
		dx := t.empty(out.Shape()...)
		od, dd, xd := out.Data(), dy.Data(), dx.Data()
		for i := range xd {
			xd[i] = dd[i] * (1 - od[i]*od[i])
		}
		x.accum(dx)
	})
}

// Dropout zeroes elements with probability p (training mode).
func (t *Tape) Dropout(x *Var, p float32, rng *rand.Rand) *Var {
	if p == 0 {
		return x
	}
	out, mask := t.E.Dropout(x.Value, p, rng)
	keep := 1 / (1 - p)
	return t.node(out, x.needGrad, func(dy *tensor.Tensor) {
		dx := t.E.Mul(dy, mask)
		x.accum(t.E.Scale(dx, keep))
	})
}

// GatherRows selects rows of x by index; its backward is a scatter-add.
func (t *Tape) GatherRows(x *Var, idx []int32) *Var {
	out := t.E.GatherRows(x.Value, idx)
	return t.node(out, x.needGrad, func(dy *tensor.Tensor) {
		if x.needGrad {
			dx := t.E.Arena().New(x.Value.Shape()...)
			t.E.ScatterAddRows(dx, dy, idx)
			x.accum(dx)
		}
	})
}

// IndexSelectRows is GatherRows lowered as the index_select kernel class.
func (t *Tape) IndexSelectRows(x *Var, idx []int32) *Var {
	out := t.E.IndexSelectRows(x.Value, idx)
	return t.node(out, x.needGrad, func(dy *tensor.Tensor) {
		if x.needGrad {
			dx := t.E.Arena().New(x.Value.Shape()...)
			t.E.ScatterAddRows(dx, dy, idx)
			x.accum(dx)
		}
	})
}

// ScatterAddRows scatters src rows into a zero (rows,F) tensor at idx; the
// forward aggregation of PyG-style message passing and Tree-LSTM child sums.
func (t *Tape) ScatterAddRows(rows int, src *Var, idx []int32) *Var {
	dst := t.E.Arena().New(rows, src.Value.Dim(1))
	t.E.ScatterAddRows(dst, src.Value, idx)
	return t.node(dst, src.needGrad, func(dy *tensor.Tensor) {
		if src.needGrad {
			src.accum(t.E.GatherRows(dy, idx))
		}
	})
}

// Embedding looks up rows of the table parameter for each id.
func (t *Tape) Embedding(table *Var, ids []int32) *Var {
	out := t.E.EmbeddingLookup(table.Value, ids)
	return t.node(out, table.needGrad, func(dy *tensor.Tensor) {
		if table.needGrad {
			dt := t.E.Arena().New(table.Value.Shape()...)
			t.E.ScatterAddRows(dt, dy, ids)
			table.accum(dt)
		}
	})
}

// Concat concatenates a (N,Fa) and b (N,Fb) into (N,Fa+Fb).
func (t *Tape) Concat(a, b *Var) *Var {
	out := t.E.Concat2D(a.Value, b.Value)
	fa := a.Value.Dim(1)
	return t.node(out, a.needGrad || b.needGrad, func(dy *tensor.Tensor) {
		da, db := t.E.SplitCols(dy, fa)
		a.accum(da)
		b.accum(db)
	})
}

// ConcatRows stacks a (Na,F) on top of b (Nb,F) into (Na+Nb,F).
func (t *Tape) ConcatRows(a, b *Var) *Var {
	out := t.E.ConcatRows2D(a.Value, b.Value)
	na := a.Value.Dim(0)
	return t.node(out, a.needGrad || b.needGrad, func(dy *tensor.Tensor) {
		da, db := t.E.SplitRows(dy, na)
		a.accum(da)
		b.accum(db)
	})
}

// SliceCols selects columns [from,to) of x (N,F); the backward pads the
// gradient back into a zero (N,F) tensor.
func (t *Tape) SliceCols(x *Var, from, to int) *Var {
	out := t.E.SliceCols2D(x.Value, from, to)
	f := x.Value.Dim(1)
	return t.node(out, x.needGrad, func(dy *tensor.Tensor) {
		x.accum(t.E.PadColsGrad(dy, f, from))
	})
}

// Reshape changes the logical shape (no kernel; metadata only).
func (t *Tape) Reshape(x *Var, shape ...int) *Var {
	out := t.empty(x.Value.Shape()...)
	copy(out.Data(), x.Value.Data())
	out = out.Reshape(shape...)
	return t.node(out, x.needGrad, func(dy *tensor.Tensor) {
		x.accum(dy)
	})
}

// Permute4D reorders the dimensions of a 4-D tensor; the backward applies
// the inverse permutation.
func (t *Tape) Permute4D(x *Var, perm [4]int) *Var {
	out := t.E.Permute4D(x.Value, perm)
	inv := ops.InversePerm4(perm)
	return t.node(out, x.needGrad, func(dy *tensor.Tensor) {
		x.accum(t.E.Permute4D(dy, inv))
	})
}

// MeanAll reduces to the (1) scalar mean.
func (t *Tape) MeanAll(x *Var) *Var {
	out := t.E.MeanAll(x.Value)
	n := float32(x.Value.Size())
	return t.node(out, x.needGrad, func(dy *tensor.Tensor) {
		dx := t.empty(x.Value.Shape()...)
		g, dd := dy.At(0)/n, dx.Data()
		for i := range dd {
			dd[i] = g
		}
		x.accum(dx)
	})
}

// SumCols reduces each row of x (N,F) to its sum, returning (N): the
// dot-product score reduction of ranking losses.
func (t *Tape) SumCols(x *Var) *Var {
	out := t.E.SumCols(x.Value)
	return t.node(out, x.needGrad, func(dy *tensor.Tensor) {
		n, f := x.Value.Dim(0), x.Value.Dim(1)
		dx := t.empty(n, f)
		for i := 0; i < n; i++ {
			g := dy.At(i)
			row := dx.Row(i)
			for j := range row {
				row[j] = g
			}
		}
		x.accum(dx)
	})
}

// Softmax applies a row-wise softmax.
func (t *Tape) Softmax(x *Var) *Var {
	out := t.E.Softmax(x.Value)
	return t.node(out, x.needGrad, func(dy *tensor.Tensor) {
		n, f := out.Dim(0), out.Dim(1)
		dx := t.empty(n, f)
		for i := 0; i < n; i++ {
			or, dr, xr := out.Row(i), dy.Row(i), dx.Row(i)
			var dot float64
			for j := 0; j < f; j++ {
				dot += float64(or[j]) * float64(dr[j])
			}
			for j := 0; j < f; j++ {
				xr[j] = or[j] * (dr[j] - float32(dot))
			}
		}
		x.accum(dx)
	})
}

// MaxPool2D applies non-overlapping k x k max pooling to a (N,C,H,W)
// tensor; the backward routes gradients to the argmax positions.
func (t *Tape) MaxPool2D(x *Var, k int) *Var {
	out, arg := t.E.MaxPool2D(x.Value, k)
	shape := x.Value.Shape()
	return t.node(out, x.needGrad, func(dy *tensor.Tensor) {
		x.accum(t.E.MaxPool2DBackward(dy, arg, shape))
	})
}

// LSTMCell applies the fused LSTM pointwise cell to pre-activation gates
// (B,4H) and previous cell state (B,H), returning (h, c). The backward is
// one fused kernel; both returned Vars feed it (h's gradient is staged
// until c's node — created first, so processed last in reverse order —
// runs the joint computation).
func (t *Tape) LSTMCell(gates, cPrev *Var) (h, c *Var) {
	hVal, cVal, cache := t.E.LSTMCellForward(gates.Value, cPrev.Value)
	need := gates.needGrad || cPrev.needGrad
	var dh *tensor.Tensor
	c = t.node(cVal, need, func(dc *tensor.Tensor) {
		dGates, dCPrev := t.E.LSTMCellBackward(cache, dh, dc)
		gates.accum(dGates)
		cPrev.accum(dCPrev)
	})
	// Seed c with a zero gradient so its backward always fires even when
	// the final cell state is unused.
	if need {
		c.accum(t.E.Arena().New(cVal.Shape()...))
	}
	// h's backward stages dy for c's: h keeps it to the iteration boundary.
	h = t.node(hVal, need, func(dy *tensor.Tensor) {
		dh = dy
	})
	h.keep = true
	return h, c
}

// GLU4D applies a gated linear unit along the channel axis of a (B,2C,S,T)
// tensor: the gated temporal convolutions of STGCN.
func (t *Tape) GLU4D(x *Var) *Var {
	out, gate := t.E.GLU4D(x.Value)
	return t.node(out, x.needGrad, func(dy *tensor.Tensor) {
		x.accum(t.E.GLU4DBackward(x.Value, gate, dy))
	})
}

// BatchNorm2D normalizes a (B,C,S,T) tensor per channel with trainable
// gamma/beta, natively on NCHW.
func (t *Tape) BatchNorm2D(x, gamma, beta *Var, eps float32) *Var {
	out, xhat, variance := t.E.BatchNorm2DForward(x.Value, gamma.Value, beta.Value, eps)
	return t.node(out, x.needGrad || gamma.needGrad || beta.needGrad, func(dy *tensor.Tensor) {
		dx, dgamma, dbeta := t.E.BatchNorm2DBackward(xhat, dy, variance, gamma.Value, eps)
		x.accum(dx)
		if gamma.needGrad {
			gamma.accum(dgamma)
		}
		if beta.needGrad {
			beta.accum(dbeta)
		}
	})
}

// BatchNorm normalizes columns of x with trainable gamma/beta (training
// statistics; running averages are the layer's concern).
func (t *Tape) BatchNorm(x, gamma, beta *Var, eps float32) *Var {
	mean, variance := t.E.BatchNormStats(x.Value)
	out := t.E.BatchNormApply(x.Value, mean, variance, gamma.Value, beta.Value, eps)
	// Reconstruct xhat for backward: xhat = (out - beta)/gamma is unstable
	// when gamma ~ 0; recompute from x instead.
	xhat := Standardize(x.Value, mean, variance, eps)
	return t.node(out, x.needGrad || gamma.needGrad || beta.needGrad, func(dy *tensor.Tensor) {
		dx, dgamma, dbeta := t.E.BatchNormBackward(xhat, dy, variance, gamma.Value, eps)
		x.accum(dx)
		if gamma.needGrad {
			gamma.accum(dgamma)
		}
		if beta.needGrad {
			beta.accum(dbeta)
		}
	})
}

// LayerNorm normalizes rows of x with trainable gamma/beta.
func (t *Tape) LayerNorm(x, gamma, beta *Var, eps float32) *Var {
	out, xhat, invStd := t.E.LayerNormForward(x.Value, gamma.Value, beta.Value, eps)
	return t.node(out, x.needGrad || gamma.needGrad || beta.needGrad, func(dy *tensor.Tensor) {
		dx, dgamma, dbeta := t.E.LayerNormBackward(xhat, invStd, dy, gamma.Value)
		x.accum(dx)
		if gamma.needGrad {
			gamma.accum(dgamma)
		}
		if beta.needGrad {
			beta.accum(dbeta)
		}
	})
}

// Standardize returns (x - mean) / sqrt(variance + eps) per column of x
// (N,F): BatchNorm's xhat, which the partitioned SyncBN computes over its
// owned rows against the global statistics.
func Standardize(x, mean, variance *tensor.Tensor, eps float32) *tensor.Tensor {
	n, f := x.Dim(0), x.Dim(1)
	xhat := tensor.New(n, f)
	// One divisor per column, computed once; each element is still divided
	// by it (not multiplied by a reciprocal), so xhat keeps its bits.
	mu := mean.Data()
	div := make([]float32, f)
	for j, v := range variance.Data() {
		div[j] = sqrtf(v + eps)
	}
	for i := 0; i < n; i++ {
		xr, hr := x.Row(i), xhat.Row(i)
		for j := 0; j < f; j++ {
			hr[j] = (xr[j] - mu[j]) / div[j]
		}
	}
	return xhat
}

func sqrtf(x float32) float32 {
	if x <= 0 {
		return 1e-6
	}
	return float32(math.Sqrt(float64(x)))
}
