package nn

import (
	"math"

	"gnnmark/internal/autograd"
	"gnnmark/internal/ops"
	"gnnmark/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients. Steps run
// through the ops engine so optimizer kernels appear in the device trace,
// as framework optimizers do on a real GPU.
type Optimizer interface {
	// Step applies one update and clears nothing; call ZeroGrads yourself.
	Step()
	// Params returns the parameter set being optimized.
	Params() []*autograd.Param
	// state exposes what a training checkpoint saves and restores beyond
	// the parameters.
	state() optState
}

// Adam is the Adam optimizer (Kingma & Ba), the default for the paper's
// workloads.
type Adam struct {
	E            *ops.Engine
	LR           float32
	Beta1, Beta2 float32
	Eps          float32

	params []*autograd.Param
	m, v   []*tensor.Tensor
	step   int
}

// NewAdam builds an Adam optimizer with the standard defaults
// (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(e *ops.Engine, params []*autograd.Param, lr float32) *Adam {
	a := &Adam{E: e, LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.Value.Shape()...)
		a.v[i] = tensor.New(p.Value.Shape()...)
	}
	return a
}

// Params implements Optimizer.
func (a *Adam) Params() []*autograd.Param { return a.params }

// state implements Optimizer: the step count and both moments.
func (a *Adam) state() optState {
	st := optState{kind: "adam", counters: []*int{&a.step}}
	for i, p := range a.params {
		st.bufs = append(st.bufs, entry{p.Name + ".m", a.m[i]}, entry{p.Name + ".v", a.v[i]})
	}
	return st
}

// Step implements Optimizer.
func (a *Adam) Step() {
	a.step++
	for i, p := range a.params {
		a.E.AdamStep(p.Value, p.Grad, a.m[i], a.v[i], a.LR, a.Beta1, a.Beta2, a.Eps, a.step)
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm; returns the pre-clip norm. Used by GraphWriter and TLSTM.
func ClipGradNorm(params []*autograd.Param, maxNorm float32) float32 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data() {
			sq += float64(g) * float64(g)
		}
	}
	norm := float32(math.Sqrt(sq))
	if norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range params {
		gd := p.Grad.Data()
		for i := range gd {
			gd[i] *= scale
		}
	}
	return norm
}
