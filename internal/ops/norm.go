package ops

import (
	"gnnmark/internal/tensor"
)

// BatchNormBackward computes the gradients of BatchNormApply. xhat is the
// normalized input (x-mean)/sqrt(var+eps); dy the output gradient. Returns
// dx, dgamma, dbeta.
func (e *Engine) BatchNormBackward(xhat, dy, variance, gamma *tensor.Tensor, eps float32) (dx, dgamma, dbeta *tensor.Tensor) {
	n, f := check2D("BatchNormBackward", xhat)
	dx = e.arena.New(n, f)
	dgamma = e.arena.New(f)
	dbeta = e.arena.New(f)
	e.be.BatchNormBackward(xhat.Data(), dy.Data(), variance.Data(), gamma.Data(),
		dx.Data(), dgamma.Data(), dbeta.Data(), n, f, eps)
	e.launchBatchNorm("batchnorm_bwd", xhat, dx)
	return dx, dgamma, dbeta
}

// LayerNormForward normalizes each row of x (N,F) to zero mean and unit
// variance, then applies the affine transform gamma*xhat+beta. Returns the
// output, the normalized xhat, and the per-row inverse std (needed by the
// backward pass).
func (e *Engine) LayerNormForward(x, gamma, beta *tensor.Tensor, eps float32) (out, xhat, invStd *tensor.Tensor) {
	n, f := check2D("LayerNormForward", x)
	if gamma.Size() != f || beta.Size() != f {
		shapePanic("LayerNormForward", x, gamma)
	}
	out = e.arena.New(n, f)
	xhat = e.arena.New(n, f)
	invStd = e.arena.New(n)
	e.be.LayerNormForward(x.Data(), gamma.Data(), beta.Data(),
		out.Data(), xhat.Data(), invStd.Data(), n, f, eps)
	e.launchBatchNorm("layernorm_fwd", x, out)
	return out, xhat, invStd
}

// LayerNormBackward computes the gradients of LayerNormForward.
func (e *Engine) LayerNormBackward(xhat, invStd, dy, gamma *tensor.Tensor) (dx, dgamma, dbeta *tensor.Tensor) {
	n, f := check2D("LayerNormBackward", xhat)
	dx = e.arena.New(n, f)
	dgamma = e.arena.New(f)
	dbeta = e.arena.New(f)
	e.be.LayerNormBackward(xhat.Data(), invStd.Data(), dy.Data(), gamma.Data(),
		dx.Data(), dgamma.Data(), dbeta.Data(), n, f)
	e.launchBatchNorm("layernorm_bwd", xhat, dx)
	return dx, dgamma, dbeta
}
