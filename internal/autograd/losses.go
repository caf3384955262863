package autograd

import (
	"fmt"

	"gnnmark/internal/tensor"
)

// CrossEntropy returns the mean negative log-likelihood of labels under the
// row-wise softmax of logits (N,C). The fused backward is the standard
// (softmax - onehot)/N.
func (t *Tape) CrossEntropy(logits *Var, labels []int32) *Var {
	n, c := logits.Value.Dim(0), logits.Value.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("autograd: CrossEntropy got %d labels for %d rows", len(labels), n))
	}
	logp := t.E.LogSoftmax(logits.Value)
	var nll float64
	for i, lab := range labels {
		if lab < 0 || int(lab) >= c {
			panic(fmt.Sprintf("autograd: label %d out of range [0,%d)", lab, c))
		}
		nll -= float64(logp.At(i, int(lab)))
	}
	loss := tensor.FromSlice([]float32{float32(nll / float64(n))}, 1)
	return t.node(loss, logits.needGrad, func(dy *tensor.Tensor) {
		soft := t.E.Softmax(logits.Value)
		g := dy.At(0) / float32(n)
		dx := t.empty(n, c)
		for i := 0; i < n; i++ {
			sr, xr := soft.Row(i), dx.Row(i)
			for j := 0; j < c; j++ {
				xr[j] = sr[j] * g
			}
			xr[labels[i]] -= g
		}
		logits.accum(dx)
	})
}

// BCEWithLogits returns the mean binary cross-entropy of sigmoid(logits)
// against targets in [0,1], numerically stabilized. Lowered as one fused
// element-wise kernel plus a mean reduction (and one fused backward
// kernel), matching PyTorch's binary_cross_entropy_with_logits.
func (t *Tape) BCEWithLogits(logits *Var, targets *tensor.Tensor) *Var {
	if logits.Value.Size() != targets.Size() {
		panic("autograd: BCEWithLogits size mismatch")
	}
	perElem := t.E.BCEWithLogitsForward(logits.Value, targets)
	loss := t.E.MeanAll(perElem)
	n := float32(perElem.Size())
	return t.node(loss, logits.needGrad, func(dy *tensor.Tensor) {
		logits.accum(t.E.BCEWithLogitsBackward(logits.Value, targets, dy.At(0)/n))
	})
}

// MSE returns the mean squared error between pred and target.
func (t *Tape) MSE(pred *Var, target *tensor.Tensor) *Var {
	if pred.Value.Size() != target.Size() {
		panic("autograd: MSE size mismatch")
	}
	diff := t.Sub(pred, t.Const(target.Clone().Reshape(pred.Value.Shape()...)))
	sq := t.Mul(diff, diff)
	return t.MeanAll(sq)
}

// MaxMargin returns the PinSAGE max-margin ranking loss
// mean(relu(negScore - posScore + margin)) for per-example score vectors.
func (t *Tape) MaxMargin(pos, neg *Var, margin float32) *Var {
	d := t.Sub(neg, pos)
	shifted := t.node(t.E.AddScalar(d.Value, margin), d.needGrad, nil)
	// AddScalar has pass-through gradient.
	shifted.back = func(dy *tensor.Tensor) { d.accum(dy) }
	return t.MeanAll(t.ReLU(shifted))
}
