// Package nn provides neural-network layers and optimizers over the
// autograd tape: linear, convolution, normalization, embedding, recurrent
// cells, and attention — the building blocks the eight GNNMark models are
// assembled from.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"gnnmark/internal/autograd"
	"gnnmark/internal/tensor"
)

// Module is anything owning trainable parameters.
type Module interface {
	// Params returns the module's parameters (stable order).
	Params() []*autograd.Param
}

// CollectParams flattens the parameters of several modules.
func CollectParams(mods ...Module) []*autograd.Param {
	var out []*autograd.Param
	for _, m := range mods {
		out = append(out, m.Params()...)
	}
	return out
}

// ZeroGrads clears the gradients of all params.
func ZeroGrads(params []*autograd.Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// NumParams returns the total element count of params.
func NumParams(params []*autograd.Param) int {
	n := 0
	for _, p := range params {
		n += p.Value.Size()
	}
	return n
}

// ParamBytes returns the fp32 byte size of params (the DDP gradient payload).
func ParamBytes(params []*autograd.Param) int { return 4 * NumParams(params) }

// glorot returns a Glorot/Xavier-uniform initialized (fanIn, fanOut) matrix.
func glorot(rng *rand.Rand, fanIn, fanOut int, shape ...int) *tensor.Tensor {
	limit := float32(math.Sqrt(6 / float64(fanIn+fanOut)))
	return tensor.Rand(rng, limit, shape...)
}

// Linear is a dense layer y = xW + b.
type Linear struct {
	W *autograd.Param
	B *autograd.Param // nil when bias is disabled
}

// NewLinear builds a Glorot-initialized (in,out) linear layer.
func NewLinear(rng *rand.Rand, name string, in, out int, bias bool) *Linear {
	l := &Linear{W: autograd.NewParam(name+".w", glorot(rng, in, out, in, out))}
	if bias {
		l.B = autograd.NewParam(name+".b", tensor.New(out))
	}
	return l
}

// Params implements Module.
func (l *Linear) Params() []*autograd.Param {
	if l.B == nil {
		return []*autograd.Param{l.W}
	}
	return []*autograd.Param{l.W, l.B}
}

// Forward applies the layer to x (N,in).
func (l *Linear) Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	y := t.MatMul(x, t.FromParam(l.W))
	if l.B != nil {
		y = t.AddBias(y, t.FromParam(l.B))
	}
	return y
}

// Conv2D is a convolution layer over (N,C,H,W) inputs.
type Conv2D struct {
	W                *autograd.Param
	B                *autograd.Param
	StrideH, StrideW int
	PadH, PadW       int
}

// NewConv2D builds a (out,in,kh,kw) convolution.
func NewConv2D(rng *rand.Rand, name string, in, out, kh, kw int) *Conv2D {
	fan := in * kh * kw
	return &Conv2D{
		W:       autograd.NewParam(name+".w", glorot(rng, fan, out*kh*kw, out, in, kh, kw)),
		B:       autograd.NewParam(name+".b", tensor.New(out)),
		StrideH: 1, StrideW: 1,
	}
}

// Params implements Module.
func (c *Conv2D) Params() []*autograd.Param { return []*autograd.Param{c.W, c.B} }

// Forward applies the convolution plus per-channel bias.
func (c *Conv2D) Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	y := t.Conv2D(x, t.FromParam(c.W), c.StrideH, c.StrideW, c.PadH, c.PadW)
	return t.AddChannelBias(y, t.FromParam(c.B))
}

// BatchNorm1D normalizes feature columns with trainable affine parameters.
type BatchNorm1D struct {
	Gamma, Beta *autograd.Param
	Eps         float32
}

// NewBatchNorm1D builds a batch-norm layer over f features.
func NewBatchNorm1D(name string, f int) *BatchNorm1D {
	return &BatchNorm1D{
		Gamma: autograd.NewParam(name+".gamma", tensor.Full(1, f)),
		Beta:  autograd.NewParam(name+".beta", tensor.New(f)),
		Eps:   1e-5,
	}
}

// Params implements Module.
func (b *BatchNorm1D) Params() []*autograd.Param { return []*autograd.Param{b.Gamma, b.Beta} }

// Forward normalizes x (N,F) using batch statistics.
func (b *BatchNorm1D) Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	return t.BatchNorm(x, t.FromParam(b.Gamma), t.FromParam(b.Beta), b.Eps)
}

// BatchNorm2D normalizes (B,C,S,T) tensors per channel (cuDNN spatial
// batch norm).
type BatchNorm2D struct {
	Gamma, Beta *autograd.Param
	Eps         float32
}

// NewBatchNorm2D builds a spatial batch-norm over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	return &BatchNorm2D{
		Gamma: autograd.NewParam(name+".gamma", tensor.Full(1, c)),
		Beta:  autograd.NewParam(name+".beta", tensor.New(c)),
		Eps:   1e-5,
	}
}

// Params implements Module.
func (b *BatchNorm2D) Params() []*autograd.Param { return []*autograd.Param{b.Gamma, b.Beta} }

// Forward normalizes x (B,C,S,T) using batch statistics.
func (b *BatchNorm2D) Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	return t.BatchNorm2D(x, t.FromParam(b.Gamma), t.FromParam(b.Beta), b.Eps)
}

// LayerNorm normalizes rows with trainable affine parameters.
type LayerNorm struct {
	Gamma, Beta *autograd.Param
	Eps         float32
}

// NewLayerNorm builds a layer-norm over f features.
func NewLayerNorm(name string, f int) *LayerNorm {
	return &LayerNorm{
		Gamma: autograd.NewParam(name+".gamma", tensor.Full(1, f)),
		Beta:  autograd.NewParam(name+".beta", tensor.New(f)),
		Eps:   1e-5,
	}
}

// Params implements Module.
func (l *LayerNorm) Params() []*autograd.Param { return []*autograd.Param{l.Gamma, l.Beta} }

// Forward normalizes x (N,F) row-wise.
func (l *LayerNorm) Forward(t *autograd.Tape, x *autograd.Var) *autograd.Var {
	return t.LayerNorm(x, t.FromParam(l.Gamma), t.FromParam(l.Beta), l.Eps)
}

// Embedding is a trainable lookup table.
type Embedding struct {
	Table *autograd.Param
}

// NewEmbedding builds a (vocab, dim) embedding table.
func NewEmbedding(rng *rand.Rand, name string, vocab, dim int) *Embedding {
	return &Embedding{Table: autograd.NewParam(name+".table", tensor.Randn(rng, 0.1, vocab, dim))}
}

// Params implements Module.
func (e *Embedding) Params() []*autograd.Param { return []*autograd.Param{e.Table} }

// Forward looks up rows for ids.
func (e *Embedding) Forward(t *autograd.Tape, ids []int32) *autograd.Var {
	return t.Embedding(t.FromParam(e.Table), ids)
}

func mustPositive(name string, v int) {
	if v <= 0 {
		panic(fmt.Sprintf("nn: %s must be positive, got %d", name, v))
	}
}
