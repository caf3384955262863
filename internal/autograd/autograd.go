// Package autograd implements tape-based reverse-mode automatic
// differentiation over the ops engine. A Tape records each forward
// operation; Backward replays the tape in reverse, invoking the registered
// backward closures. Because the closures compute gradients through the same
// ops engine, the backward pass emits GPU kernels exactly as the forward
// pass does — training-time kernel streams (the subject of the paper) come
// out of the same machinery.
package autograd

import (
	"fmt"

	"gnnmark/internal/tensor"

	"gnnmark/internal/ops"
)

// Param is a trainable parameter: a value plus an accumulated gradient.
// Layers own Params; optimizers step them.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam wraps value as a named parameter with a zero gradient.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Var is a node in the autodiff graph. Value is the forward result; grad
// accumulates dLoss/dValue during Backward.
type Var struct {
	Value *tensor.Tensor

	grad     *tensor.Tensor
	needGrad bool
	back     func(dy *tensor.Tensor)
	param    *Param
	tape     *Tape
	order    int
}

// Grad returns the accumulated gradient (nil before Backward reaches it).
func (v *Var) Grad() *tensor.Tensor { return v.grad }

// accum adds dy into v's gradient, allocating on first touch.
func (v *Var) accum(dy *tensor.Tensor) {
	if !v.needGrad {
		return
	}
	if v.grad == nil {
		// Gradients are transient (one per node per iteration): draw them
		// from the host buffer pool and return them in ReleaseGrads.
		v.grad = tensor.NewPooled(v.Value.Shape()...)
	}
	gd, dd := v.grad.Data(), dy.Data()
	if len(gd) != len(dd) {
		panic(fmt.Sprintf("autograd: gradient size %d for value %v", len(dd), v.Value.Shape()))
	}
	for i := range gd {
		gd[i] += dd[i]
	}
}

// Tape records operations for one forward/backward cycle. Create a fresh
// tape per training iteration; parameters persist outside the tape.
type Tape struct {
	E     *ops.Engine
	nodes []*Var
}

// NewTape returns a tape bound to an ops engine.
func NewTape(e *ops.Engine) *Tape { return &Tape{E: e} }

// node registers a new variable produced by an operation.
func (t *Tape) node(val *tensor.Tensor, needGrad bool, back func(dy *tensor.Tensor)) *Var {
	v := &Var{Value: val, needGrad: needGrad, back: back, tape: t, order: len(t.nodes)}
	t.nodes = append(t.nodes, v)
	return v
}

// Node registers a custom operation result that needs a gradient on the
// tape: val is the forward output, back (optional) receives dLoss/dval
// during Backward. This is the extension point for operations composed
// outside this package — e.g. the partitioned-training collectives (halo
// exchange, all-gather) whose backward pass must route gradients across
// workers.
func (t *Tape) Node(val *tensor.Tensor, back func(dy *tensor.Tensor)) *Var {
	return t.node(val, true, back)
}

// Accum adds dy into v's gradient, allocating it on first touch. Custom
// backward closures registered via Node use it to deposit gradients into
// upstream variables (Backward's reverse-order walk guarantees the
// upstream node's own backward has not run yet).
func (v *Var) Accum(dy *tensor.Tensor) { v.accum(dy) }

// Const introduces a non-trainable input (features, targets).
func (t *Tape) Const(val *tensor.Tensor) *Var {
	return t.node(val, false, nil)
}

// FromParam introduces a trainable parameter; Backward accumulates into
// p.Grad.
func (t *Tape) FromParam(p *Param) *Var {
	v := t.node(p.Value, true, nil)
	v.param = p
	return v
}

// Backward runs reverse-mode differentiation from the scalar loss. It
// panics when loss is not a size-1 tensor (programmer error).
func (t *Tape) Backward(loss *Var) {
	if loss.Value.Size() != 1 {
		panic(fmt.Sprintf("autograd: Backward requires scalar loss, got %v", loss.Value.Shape()))
	}
	loss.accum(tensor.Full(1, loss.Value.Shape()...))
	for i := len(t.nodes) - 1; i >= 0; i-- {
		v := t.nodes[i]
		if v.grad == nil {
			continue
		}
		if v.back != nil {
			v.back(v.grad)
		}
		if v.param != nil {
			pg, vg := v.param.Grad.Data(), v.grad.Data()
			for j := range pg {
				pg[j] += vg[j]
			}
		}
	}
}

// ReleaseGrads recycles every node gradient into the host buffer pool and
// detaches them from the tape. Call it once the iteration's gradients have
// been consumed (after the optimizer step); Var.Grad returns nil afterwards.
// Tapes are per-iteration, so this is the natural end of the gradients'
// lifetime — parameter gradients (Param.Grad) are unaffected.
func (t *Tape) ReleaseGrads() {
	for _, v := range t.nodes {
		if v.grad != nil {
			tensor.Recycle(v.grad)
			v.grad = nil
		}
	}
}
