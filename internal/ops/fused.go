package ops

import (
	"gnnmark/internal/gpu"
	"gnnmark/internal/tensor"
)

// GLU4D applies a gated linear unit along the channel axis of x
// (B,2C,S,T): out = x[:, :C] * sigmoid(x[:, C:]). One fused kernel, as
// PyTorch's F.glu lowers. Returns the output and the gate activations
// (needed by the backward pass).
func (e *Engine) GLU4D(x *tensor.Tensor) (out, gate *tensor.Tensor) {
	if x.Dims() != 4 || x.Dim(1)%2 != 0 {
		shapePanic("GLU4D", x)
	}
	b, c2, s, tw := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	c := c2 / 2
	out = e.arena.New(b, c, s, tw)
	gate = e.arena.New(b, c, s, tw)
	e.be.GLU4D(x.Data(), out.Data(), gate.Data(), b, c, s*tw)
	if e.dev != nil {
		elem := e.fpElem()
		n := uint64(x.Size())
		e.launch(&gpu.Kernel{
			Name:    "glu",
			Class:   gpu.OpElementWise,
			Threads: out.Size(),
			Mix: gpu.InstrMix{
				Fp32:    n,
				Int32:   n,
				Special: n / 2,
				Load:    n,
				Store:   n / 2,
				Control: n / 4,
			},
			Flops: n * 2,
			Iops:  n,
			Accesses: e.accesses([]gpu.Access{
				{Kind: gpu.LoadAccess, Base: e.addr(x), ElemBytes: elem, Count: x.Size(), Stride: 1},
				{Kind: gpu.StoreAccess, Base: e.addr(out), ElemBytes: elem, Count: out.Size(), Stride: 1},
			}),
			CodeBytes: 2 << 10,
			DepChain:  1.3,
		})
	}
	return out, gate
}

// GLU4DBackward computes the input gradient of GLU4D from the stored value
// half, gate activations, and output gradient.
func (e *Engine) GLU4DBackward(x, gate, dy *tensor.Tensor) *tensor.Tensor {
	b, c2 := x.Dim(0), x.Dim(1)
	c := c2 / 2
	s, tw := x.Dim(2), x.Dim(3)
	dx := e.arena.New(b, c2, s, tw)
	e.be.GLU4DBackward(x.Data(), gate.Data(), dy.Data(), dx.Data(), b, c, s*tw)
	e.launchElementWise("glu_bwd", 3, x.Size(), []*tensor.Tensor{x, gate, dy}, dx)
	return dx
}

// LSTMCache holds the activations the fused LSTM backward needs.
type LSTMCache struct {
	I, F, G, O  *tensor.Tensor // gate activations (B,H)
	CPrev, CNew *tensor.Tensor
}

// LSTMCellForward applies the fused LSTM pointwise cell: given
// pre-activation gates (B,4H) in i,f,g,o layout and the previous cell
// state (B,H), it computes the new hidden and cell states in one
// element-wise kernel (the cuDNN/PyTorch "lstm_cell" pointwise kernel that
// follows the two gate GEMMs).
func (e *Engine) LSTMCellForward(gates, cPrev *tensor.Tensor) (h, c *tensor.Tensor, cache *LSTMCache) {
	b, h4 := check2D("LSTMCellForward", gates)
	_, hd := check2D("LSTMCellForward", cPrev)
	if h4 != 4*hd || cPrev.Dim(0) != b {
		shapePanic("LSTMCellForward", gates, cPrev)
	}
	cache = &LSTMCache{
		I: e.arena.New(b, hd), F: e.arena.New(b, hd),
		G: e.arena.New(b, hd), O: e.arena.New(b, hd),
		CPrev: cPrev, CNew: e.arena.New(b, hd),
	}
	h = e.arena.New(b, hd)
	e.be.LSTMCellForward(gates.Data(), cPrev.Data(),
		cache.I.Data(), cache.F.Data(), cache.G.Data(), cache.O.Data(),
		cache.CNew.Data(), h.Data(), b, hd)
	if e.dev != nil {
		un := uint64(gates.Size())
		elem := e.fpElem()
		e.launch(&gpu.Kernel{
			Name:    "lstm_cell",
			Class:   gpu.OpElementWise,
			Threads: cPrev.Size(),
			Mix: gpu.InstrMix{
				Fp32:    un,
				Int32:   un * 2,
				Special: un,
				Load:    un + uint64(cPrev.Size()),
				Store:   2 * uint64(cPrev.Size()),
				Control: un / 2,
			},
			Flops: un * 3,
			Iops:  un * 2,
			Accesses: e.accesses([]gpu.Access{
				{Kind: gpu.LoadAccess, Base: e.addr(gates), ElemBytes: elem, Count: gates.Size(), Stride: 1},
				{Kind: gpu.LoadAccess, Base: e.addr(cPrev), ElemBytes: elem, Count: cPrev.Size(), Stride: 1},
				{Kind: gpu.StoreAccess, Base: e.addr(h), ElemBytes: elem, Count: h.Size(), Stride: 1},
				{Kind: gpu.StoreAccess, Base: e.addr(cache.CNew), ElemBytes: elem, Count: cache.CNew.Size(), Stride: 1},
			}),
			CodeBytes: 3 << 10,
			DepChain:  1.6,
		})
	}
	return h, cache.CNew, cache
}

// LSTMCellBackward computes the fused backward of LSTMCellForward: given
// dH and dC (either may be nil for zero), it returns the gate-preactivation
// gradient (B,4H) and the previous-cell gradient (B,H). One element-wise
// kernel.
func (e *Engine) LSTMCellBackward(cache *LSTMCache, dH, dC *tensor.Tensor) (dGates, dCPrev *tensor.Tensor) {
	b, hd := cache.I.Dim(0), cache.I.Dim(1)
	dGates = e.arena.New(b, 4*hd)
	dCPrev = e.arena.New(b, hd)
	var dHd, dCd []float32
	if dH != nil {
		dHd = dH.Data()
	}
	if dC != nil {
		dCd = dC.Data()
	}
	e.be.LSTMCellBackward(cache.I.Data(), cache.F.Data(), cache.G.Data(), cache.O.Data(),
		cache.CPrev.Data(), cache.CNew.Data(), dHd, dCd,
		dGates.Data(), dCPrev.Data(), b, hd)
	e.launchElementWise("lstm_cell_bwd", 3, dGates.Size(), []*tensor.Tensor{cache.I, cache.CNew}, dGates)
	return dGates, dCPrev
}

// BatchNorm2DForward normalizes x (B,C,S,T) per channel (cuDNN spatial
// batch norm, operating natively on NCHW — no layout transposes). Returns
// the output, normalized xhat, and per-channel variance.
func (e *Engine) BatchNorm2DForward(x, gamma, beta *tensor.Tensor, eps float32) (out, xhat, variance *tensor.Tensor) {
	if x.Dims() != 4 || gamma.Size() != x.Dim(1) || beta.Size() != x.Dim(1) {
		shapePanic("BatchNorm2DForward", x, gamma)
	}
	b, c, s, tw := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out = e.arena.New(b, c, s, tw)
	xhat = e.arena.New(b, c, s, tw)
	variance = e.arena.New(c)
	e.be.BatchNorm2D(x.Data(), gamma.Data(), beta.Data(),
		out.Data(), xhat.Data(), variance.Data(), b, c, s*tw, eps)
	e.launchBatchNorm("batchnorm2d_fwd", x, out)
	return out, xhat, variance
}

// BatchNorm2DBackward computes gradients of BatchNorm2DForward.
func (e *Engine) BatchNorm2DBackward(xhat, dy, variance, gamma *tensor.Tensor, eps float32) (dx, dgamma, dbeta *tensor.Tensor) {
	b, c, s, tw := xhat.Dim(0), xhat.Dim(1), xhat.Dim(2), xhat.Dim(3)
	dx = e.arena.New(b, c, s, tw)
	dgamma = e.arena.New(c)
	dbeta = e.arena.New(c)
	e.be.BatchNorm2DBackward(xhat.Data(), dy.Data(), variance.Data(), gamma.Data(),
		dx.Data(), dgamma.Data(), dbeta.Data(), b, c, s*tw, eps)
	e.launchBatchNorm("batchnorm2d_bwd", xhat, dx)
	return dx, dgamma, dbeta
}
