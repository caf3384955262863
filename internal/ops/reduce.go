package ops

import (
	"gnnmark/internal/gpu"
	"gnnmark/internal/tensor"
)

// launchReduction emits the tree-reduction kernel recipe over n inputs
// producing m outputs.
func (e *Engine) launchReduction(name string, n, m int, in, out *tensor.Tensor) {
	if e.dev == nil {
		return
	}
	elem := e.fpElem()
	un := uint64(n)
	e.launch(&gpu.Kernel{
		Name:    name,
		Class:   gpu.OpReduction,
		Threads: n,
		Mix: gpu.InstrMix{
			Fp32:    un,
			Int32:   un * 4,
			Load:    un,
			Store:   uint64(m),
			Control: un,
		},
		Flops: un,
		Iops:  un * 4,
		Accesses: []gpu.Access{
			{Kind: gpu.LoadAccess, Base: e.addr(in), ElemBytes: elem, Count: n, Stride: 1},
			{Kind: gpu.StoreAccess, Base: e.addr(out), ElemBytes: elem, Count: m, Stride: 1},
		},
		CodeBytes: 2 << 10,
		// Tree reductions are dependency-bound within a warp.
		DepChain: 3.0,
		Barriers: 5,
	})
}

// SumAll returns the scalar sum of x as a (1) tensor.
func (e *Engine) SumAll(x *tensor.Tensor) *tensor.Tensor {
	s := e.be.SumAll(x.Data())
	out := tensor.FromSlice([]float32{float32(s)}, 1)
	e.launchReduction("reduce_sum_all", x.Size(), 1, x, out)
	return out
}

// MeanAll returns the scalar mean of x as a (1) tensor.
func (e *Engine) MeanAll(x *tensor.Tensor) *tensor.Tensor {
	out := e.SumAll(x)
	if x.Size() > 0 {
		out.Data()[0] /= float32(x.Size())
	}
	return out
}

// SumRows reduces x (N,F) over rows to (F).
func (e *Engine) SumRows(x *tensor.Tensor) *tensor.Tensor {
	n, f := check2D("SumRows", x)
	out := tensor.New(f)
	e.be.SumRows(x.Data(), out.Data(), n, f)
	e.launchReduction("reduce_sum_rows", x.Size(), f, x, out)
	return out
}

// SumCols reduces x (N,F) over columns to (N).
func (e *Engine) SumCols(x *tensor.Tensor) *tensor.Tensor {
	n, f := check2D("SumCols", x)
	out := tensor.New(n)
	e.be.SumCols(x.Data(), out.Data(), n, f)
	e.launchReduction("reduce_sum_cols", x.Size(), n, x, out)
	return out
}

// Softmax returns the row-wise softmax of x (N,F), numerically stabilized.
func (e *Engine) Softmax(x *tensor.Tensor) *tensor.Tensor {
	n, f := check2D("Softmax", x)
	out := tensor.New(n, f)
	e.be.Softmax(x.Data(), out.Data(), n, f)
	e.launchSoftmax("softmax", x, out)
	return out
}

// LogSoftmax returns the row-wise log-softmax of x (N,F).
func (e *Engine) LogSoftmax(x *tensor.Tensor) *tensor.Tensor {
	n, f := check2D("LogSoftmax", x)
	out := tensor.New(n, f)
	e.be.LogSoftmax(x.Data(), out.Data(), n, f)
	e.launchSoftmax("log_softmax", x, out)
	return out
}

func (e *Engine) launchSoftmax(name string, x, out *tensor.Tensor) {
	if e.dev == nil {
		return
	}
	elem := e.fpElem()
	un := uint64(x.Size())
	e.launch(&gpu.Kernel{
		Name:    name,
		Class:   gpu.OpReduction,
		Threads: x.Size(),
		Mix: gpu.InstrMix{
			Fp32:    un * 2,
			Int32:   un * 4,
			Special: un,
			Load:    un * 2,
			Store:   un,
			Control: un,
		},
		Flops: un * 4,
		Iops:  un * 4,
		Accesses: []gpu.Access{
			{Kind: gpu.LoadAccess, Base: e.addr(x), ElemBytes: elem, Count: x.Size(), Stride: 1, Repeat: 2},
			{Kind: gpu.StoreAccess, Base: e.addr(out), ElemBytes: elem, Count: out.Size(), Stride: 1},
		},
		CodeBytes: 3 << 10,
		DepChain:  2.5,
		Barriers:  3,
	})
}

// BatchNormStats computes per-column mean and variance of x (N,F) in one
// BatchNorm-class kernel; used by the nn.BatchNorm layer.
func (e *Engine) BatchNormStats(x *tensor.Tensor) (mean, variance *tensor.Tensor) {
	n, f := check2D("BatchNormStats", x)
	mean = tensor.New(f)
	variance = tensor.New(f)
	e.be.BatchNormStats(x.Data(), mean.Data(), variance.Data(), n, f)
	e.launchBatchNorm("batchnorm_stats", x, mean)
	return mean, variance
}

// BatchNormApply normalizes x with the given statistics and affine
// parameters: gamma*(x-mean)/sqrt(var+eps) + beta.
func (e *Engine) BatchNormApply(x, mean, variance, gamma, beta *tensor.Tensor, eps float32) *tensor.Tensor {
	n, f := check2D("BatchNormApply", x)
	if mean.Size() != f || variance.Size() != f || gamma.Size() != f || beta.Size() != f {
		shapePanic("BatchNormApply", x, mean)
	}
	out := tensor.New(n, f)
	e.be.BatchNormApply(x.Data(), mean.Data(), variance.Data(), gamma.Data(), beta.Data(), out.Data(), n, f, eps)
	e.launchBatchNorm("batchnorm_apply", x, out)
	return out
}

func (e *Engine) launchBatchNorm(name string, x, out *tensor.Tensor) {
	if e.dev == nil {
		return
	}
	elem := e.fpElem()
	un := uint64(x.Size())
	e.launch(&gpu.Kernel{
		Name:    name,
		Class:   gpu.OpBatchNorm,
		Threads: x.Size(),
		Mix: gpu.InstrMix{
			Fp32:    un * 3,
			Int32:   un * 4,
			Special: un / 8,
			Load:    un * 2,
			Store:   un / 2,
			Control: un,
		},
		Flops: un * 4,
		Iops:  un * 4,
		Accesses: []gpu.Access{
			{Kind: gpu.LoadAccess, Base: e.addr(x), ElemBytes: elem, Count: x.Size(), Stride: 1, Repeat: 2},
			{Kind: gpu.StoreAccess, Base: e.addr(out), ElemBytes: elem, Count: out.Size(), Stride: 1},
		},
		CodeBytes: 3 << 10,
		DepChain:  2.2,
		Barriers:  4,
	})
}
