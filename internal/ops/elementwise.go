package ops

import (
	"math/rand"

	"gnnmark/internal/gpu"
	"gnnmark/internal/tensor"
)

// launchElementWise emits the pointwise kernel recipe: arity input streams
// and one output stream, all coalesced.
func (e *Engine) launchElementWise(name string, arity, n int, ins []*tensor.Tensor, out *tensor.Tensor) {
	if e.dev == nil {
		return
	}
	elem := e.fpElem()
	accesses := make([]gpu.Access, 0, len(ins)+1)
	for _, in := range ins {
		accesses = append(accesses, gpu.Access{
			Kind: gpu.LoadAccess, Base: e.addr(in), ElemBytes: elem, Count: in.Size(), Stride: 1,
		})
	}
	accesses = append(accesses, gpu.Access{
		Kind: gpu.StoreAccess, Base: e.addr(out), ElemBytes: elem, Count: out.Size(), Stride: 1,
	})
	un := uint64(n)
	e.launch(&gpu.Kernel{
		Name:    name,
		Class:   gpu.OpElementWise,
		Threads: n,
		Mix: gpu.InstrMix{
			Fp32:    un,
			Int32:   un * 5, // grid-stride index math, bounds checks
			Load:    un * uint64(arity),
			Store:   un,
			Control: un,
		},
		Flops:     un,
		Iops:      un * 5,
		Accesses:  accesses,
		CodeBytes: 1 << 10,
		DepChain:  1.15,
	})
}

// launchActivation emits the SFU-heavy pointwise recipe (sigmoid/tanh/exp).
func (e *Engine) launchActivation(name string, n int, in, out *tensor.Tensor) {
	if e.dev == nil {
		return
	}
	elem := e.fpElem()
	un := uint64(n)
	e.launch(&gpu.Kernel{
		Name:    name,
		Class:   gpu.OpElementWise,
		Threads: n,
		Mix: gpu.InstrMix{
			Fp32:    un * 2,
			Int32:   un * 4,
			Special: un,
			Load:    un,
			Store:   un,
			Control: un,
		},
		Flops: un * 4,
		Iops:  un * 4,
		Accesses: []gpu.Access{
			{Kind: gpu.LoadAccess, Base: e.addr(in), ElemBytes: elem, Count: n, Stride: 1},
			{Kind: gpu.StoreAccess, Base: e.addr(out), ElemBytes: elem, Count: n, Stride: 1},
		},
		CodeBytes: 2 << 10,
		DepChain:  1.3,
	})
}

// Add returns a + b elementwise.
func (e *Engine) Add(a, b *tensor.Tensor) *tensor.Tensor {
	sameShape("Add", a, b)
	out := tensor.New(a.Shape()...)
	e.be.Add(out.Data(), a.Data(), b.Data())
	e.launchElementWise("ew_add", 2, out.Size(), []*tensor.Tensor{a, b}, out)
	return out
}

// Sub returns a - b elementwise.
func (e *Engine) Sub(a, b *tensor.Tensor) *tensor.Tensor {
	sameShape("Sub", a, b)
	out := tensor.New(a.Shape()...)
	e.be.Sub(out.Data(), a.Data(), b.Data())
	e.launchElementWise("ew_sub", 2, out.Size(), []*tensor.Tensor{a, b}, out)
	return out
}

// Mul returns a * b elementwise (Hadamard product).
func (e *Engine) Mul(a, b *tensor.Tensor) *tensor.Tensor {
	sameShape("Mul", a, b)
	out := tensor.New(a.Shape()...)
	e.be.Mul(out.Data(), a.Data(), b.Data())
	e.launchElementWise("ew_mul", 2, out.Size(), []*tensor.Tensor{a, b}, out)
	return out
}

// Scale returns a * s elementwise.
func (e *Engine) Scale(a *tensor.Tensor, s float32) *tensor.Tensor {
	out := tensor.New(a.Shape()...)
	e.be.Scale(out.Data(), a.Data(), s)
	e.launchElementWise("ew_scale", 1, out.Size(), []*tensor.Tensor{a}, out)
	return out
}

// AddScalar returns a + s elementwise.
func (e *Engine) AddScalar(a *tensor.Tensor, s float32) *tensor.Tensor {
	out := tensor.New(a.Shape()...)
	e.be.AddScalar(out.Data(), a.Data(), s)
	e.launchElementWise("ew_adds", 1, out.Size(), []*tensor.Tensor{a}, out)
	return out
}

// AddScaled returns a + s*b elementwise (axpy).
func (e *Engine) AddScaled(a, b *tensor.Tensor, s float32) *tensor.Tensor {
	sameShape("AddScaled", a, b)
	out := tensor.New(a.Shape()...)
	e.be.AddScaled(out.Data(), a.Data(), b.Data(), s)
	e.launchElementWise("ew_axpy", 2, out.Size(), []*tensor.Tensor{a, b}, out)
	return out
}

// ReLU returns max(x, 0).
func (e *Engine) ReLU(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	e.be.ReLU(out.Data(), x.Data())
	e.launchElementWise("relu", 1, out.Size(), []*tensor.Tensor{x}, out)
	return out
}

// ReLUBackward returns dy masked by x > 0.
func (e *Engine) ReLUBackward(x, dy *tensor.Tensor) *tensor.Tensor {
	sameShape("ReLUBackward", x, dy)
	out := tensor.New(x.Shape()...)
	e.be.ReLUBackward(out.Data(), x.Data(), dy.Data())
	e.launchElementWise("relu_bwd", 2, out.Size(), []*tensor.Tensor{x, dy}, out)
	return out
}

// PReLU returns x where positive, alpha*x otherwise (scalar alpha).
func (e *Engine) PReLU(x *tensor.Tensor, alpha float32) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	e.be.PReLU(out.Data(), x.Data(), alpha)
	e.launchElementWise("prelu", 1, out.Size(), []*tensor.Tensor{x}, out)
	return out
}

// Sigmoid returns 1/(1+exp(-x)).
func (e *Engine) Sigmoid(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	e.be.Sigmoid(out.Data(), x.Data())
	e.launchActivation("sigmoid", out.Size(), x, out)
	return out
}

// Tanh returns tanh(x).
func (e *Engine) Tanh(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	e.be.Tanh(out.Data(), x.Data())
	e.launchActivation("tanh", out.Size(), x, out)
	return out
}

// Exp returns exp(x).
func (e *Engine) Exp(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	e.be.Exp(out.Data(), x.Data())
	e.launchActivation("exp", out.Size(), x, out)
	return out
}

// Dropout zeroes each element with probability p and scales survivors by
// 1/(1-p), returning the output and the kept-mask (1 or 0 entries).
func (e *Engine) Dropout(x *tensor.Tensor, p float32, rng *rand.Rand) (out, mask *tensor.Tensor) {
	if p < 0 || p >= 1 {
		panic("ops: Dropout requires 0 <= p < 1")
	}
	out = tensor.New(x.Shape()...)
	mask = tensor.New(x.Shape()...)
	e.be.Dropout(x.Data(), out.Data(), mask.Data(), p, rng)
	e.launchElementWise("dropout", 2, out.Size(), []*tensor.Tensor{x, mask}, out)
	return out, mask
}

// Concat2D concatenates a (N,Fa) and b (N,Fb) along columns into (N,Fa+Fb).
func (e *Engine) Concat2D(a, b *tensor.Tensor) *tensor.Tensor {
	an, af := check2D("Concat2D", a)
	bn, bf := check2D("Concat2D", b)
	if an != bn {
		shapePanic("Concat2D", a, b)
	}
	out := tensor.New(an, af+bf)
	for i := 0; i < an; i++ {
		copy(out.Row(i)[:af], a.Row(i))
		copy(out.Row(i)[af:], b.Row(i))
	}
	e.launchElementWise("concat", 2, out.Size(), []*tensor.Tensor{a, b}, out)
	return out
}

// ConcatRows2D stacks a (Na,F) on top of b (Nb,F) into (Na+Nb,F).
func (e *Engine) ConcatRows2D(a, b *tensor.Tensor) *tensor.Tensor {
	an, af := check2D("ConcatRows2D", a)
	bn, bf := check2D("ConcatRows2D", b)
	if af != bf {
		shapePanic("ConcatRows2D", a, b)
	}
	out := tensor.New(an+bn, af)
	copy(out.Data()[:an*af], a.Data())
	copy(out.Data()[an*af:], b.Data())
	e.launchElementWise("concat_rows", 2, out.Size(), []*tensor.Tensor{a, b}, out)
	return out
}

// SplitRows splits x (Na+Nb, F) into (Na,F) and the remainder: the backward
// of ConcatRows2D.
func (e *Engine) SplitRows(x *tensor.Tensor, na int) (a, b *tensor.Tensor) {
	n, f := check2D("SplitRows", x)
	if na < 0 || na > n {
		shapePanic("SplitRows", x)
	}
	a = tensor.New(na, f)
	b = tensor.New(n-na, f)
	copy(a.Data(), x.Data()[:na*f])
	copy(b.Data(), x.Data()[na*f:])
	e.launchElementWise("split_rows", 1, x.Size(), []*tensor.Tensor{x}, a)
	return a, b
}

// SplitCols splits x (N, Fa+Fb) back into (N,Fa) and (N,Fb): the backward
// of Concat2D.
func (e *Engine) SplitCols(x *tensor.Tensor, fa int) (a, b *tensor.Tensor) {
	n, f := check2D("SplitCols", x)
	if fa < 0 || fa > f {
		shapePanic("SplitCols", x)
	}
	a = tensor.New(n, fa)
	b = tensor.New(n, f-fa)
	for i := 0; i < n; i++ {
		copy(a.Row(i), x.Row(i)[:fa])
		copy(b.Row(i), x.Row(i)[fa:])
	}
	e.launchElementWise("split", 1, x.Size(), []*tensor.Tensor{x}, a)
	return a, b
}
