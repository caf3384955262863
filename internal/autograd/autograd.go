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
	// keep holds grad until the engine's iteration boundary instead of
	// releasing it once back has run: set on nodes whose backward hands dy
	// to someone who reads it later (LSTMCell's h, the custom nodes of
	// Tape.Node, whose collectives publish dy to other workers).
	keep  bool
	back  func(dy *tensor.Tensor)
	param *Param
	tape  *Tape
}

// accum adds dy into v's gradient, taking it from the arena on first touch.
func (v *Var) accum(dy *tensor.Tensor) {
	if !v.needGrad {
		return
	}
	first := v.grad == nil
	if first {
		v.grad = v.tape.E.Arena().Empty(v.Value.Shape()...)
	}
	gd, dd := v.grad.Data(), dy.Data()
	if len(gd) != len(dd) {
		panic(fmt.Sprintf("autograd: gradient size %d for value %v", len(dd), v.Value.Shape()))
	}
	if first {
		// The buffer is unzeroed: dy + 0 has the bits of 0 + dy (-0 becomes
		// +0; NaN, subnormals and infinities pass unchanged).
		for i := range gd {
			gd[i] = dd[i] + 0
		}
		return
	}
	for i := range gd {
		gd[i] += dd[i]
	}
}

// Tape records operations for one forward/backward cycle. Create a fresh
// tape per training iteration; parameters persist outside the tape.
type Tape struct {
	E *ops.Engine
	// nodes is the chunk being filled and full the chunks before it, in
	// registration order. A full chunk is followed by one twice its size
	// (up to maxChunk nodes), never grown, so every *Var stays valid.
	nodes []Var
	full  [][]Var
}

// Node chunk sizes: a serving forward records tens, training thousands.
const (
	firstChunk = 64
	maxChunk   = 1024
)

// NewTape returns a tape bound to an ops engine.
func NewTape(e *ops.Engine) *Tape { return &Tape{E: e} }

// node registers a new variable produced by an operation.
func (t *Tape) node(val *tensor.Tensor, needGrad bool, back func(dy *tensor.Tensor)) *Var {
	if len(t.nodes) == cap(t.nodes) {
		size := firstChunk
		if t.nodes != nil {
			t.full = append(t.full, t.nodes)
			size = min(2*cap(t.nodes), maxChunk)
		}
		t.nodes = make([]Var, 0, size)
	}
	t.nodes = append(t.nodes, Var{Value: val, needGrad: needGrad, back: back, tape: t})
	return &t.nodes[len(t.nodes)-1]
}

// Node registers a custom operation result that needs a gradient on the
// tape: val is the forward output, back (optional) receives dLoss/dval
// during Backward and may publish it, so the node keeps its gradient until
// the engine's next iteration boundary. This is the extension point for
// operations composed outside this package — e.g. the partitioned-training
// collectives (halo exchange, all-gather) whose backward pass must route
// gradients across workers.
func (t *Tape) Node(val *tensor.Tensor, back func(dy *tensor.Tensor)) *Var {
	v := t.node(val, true, back)
	v.keep = true
	return v
}

// Accum adds dy into v's gradient, taking it from the arena on first
// touch. Custom backward closures registered via Node use it to deposit
// gradients into upstream variables (Backward's reverse-order walk
// guarantees the upstream node's own backward has not run yet).
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

// Backward runs reverse-mode differentiation from the scalar loss. A node's
// gradient goes back to the engine's arena as soon as its backward closure
// has run and it has been added to its parameter, unless the node keeps it
// to the iteration boundary; a closure must not keep dy otherwise. It
// panics when loss is not a size-1 tensor (programmer error).
func (t *Tape) Backward(loss *Var) {
	if loss.Value.Size() != 1 {
		panic(fmt.Sprintf("autograd: Backward requires scalar loss, got %v", loss.Value.Shape()))
	}
	arena := t.E.Arena()
	seed := arena.Empty(loss.Value.Shape()...)
	seed.Data()[0] = 1
	loss.accum(seed)
	for c := len(t.full); c >= 0; c-- {
		nodes := t.nodes
		if c < len(t.full) {
			nodes = t.full[c]
		}
		for i := len(nodes) - 1; i >= 0; i-- {
			v := &nodes[i]
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
			if !v.keep {
				arena.Release(v.grad)
				v.grad = nil
			}
		}
	}
}
