package ops

import (
	"gnnmark/internal/tensor"
)

// BCEWithLogitsForward computes the per-element binary cross-entropy of
// sigmoid(logits) against targets, numerically stabilized: one fused
// element-wise kernel, as PyTorch's binary_cross_entropy_with_logits
// lowers. Callers reduce the result with SumAll/MeanAll (the reduction
// kernel the paper's ARGA profile is full of — its decoder loss spans the
// whole N x N adjacency).
func (e *Engine) BCEWithLogitsForward(logits, targets *tensor.Tensor) *tensor.Tensor {
	if logits.Size() != targets.Size() {
		shapePanic("BCEWithLogitsForward", logits, targets)
	}
	out := e.arena.New(logits.Shape()...)
	e.be.BCEWithLogits(logits.Data(), targets.Data(), out.Data())
	e.launchActivation("bce_with_logits", out.Size(), logits, out)
	return out
}

// BCEWithLogitsBackward returns d(loss sum)/d(logits) scaled by g: the
// fused (sigmoid(x) - y) * g kernel.
func (e *Engine) BCEWithLogitsBackward(logits, targets *tensor.Tensor, g float32) *tensor.Tensor {
	dx := e.arena.New(logits.Shape()...)
	e.be.BCEWithLogitsBackward(logits.Data(), targets.Data(), dx.Data(), g)
	e.launchElementWise("bce_with_logits_bwd", 2, dx.Size(), []*tensor.Tensor{logits, targets}, dx)
	return dx
}
