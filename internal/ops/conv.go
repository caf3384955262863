package ops

import (
	"fmt"

	"gnnmark/internal/backend"
	"gnnmark/internal/gpu"
	"gnnmark/internal/tensor"
)

// conv2DDims validates shapes and returns the backend geometry descriptor,
// including the output spatial dimensions.
func conv2DDims(x, w *tensor.Tensor, strideH, strideW, padH, padW int) backend.ConvParams {
	if x.Dims() != 4 || w.Dims() != 4 {
		panic(fmt.Sprintf("ops: Conv2D requires 4-D tensors, got %v %v", x.Shape(), w.Shape()))
	}
	p := backend.ConvParams{
		N: x.Dim(0), Cin: x.Dim(1), H: x.Dim(2), W: x.Dim(3),
		Cout: w.Dim(0), KH: w.Dim(2), KW: w.Dim(3),
		StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW,
	}
	if w.Dim(1) != p.Cin {
		shapePanic("Conv2D", x, w)
	}
	p.OH = (p.H+2*padH-p.KH)/strideH + 1
	p.OW = (p.W+2*padW-p.KW)/strideW + 1
	if p.OH < 1 || p.OW < 1 {
		panic("ops: Conv2D output would be empty")
	}
	return p
}

// Conv2D computes a dense 2-D convolution of x (N,Cin,H,W) with filters
// w (Cout,Cin,KH,KW), the temporal-convolution workhorse of STGCN.
func (e *Engine) Conv2D(x, w *tensor.Tensor, strideH, strideW, padH, padW int) *tensor.Tensor {
	p := conv2DDims(x, w, strideH, strideW, padH, padW)
	out := e.arena.New(p.N, p.Cout, p.OH, p.OW)
	e.be.Conv2D(x.Data(), w.Data(), out.Data(), p)
	e.launchConv("conv2d_fwd", x, w, out, uint64(p.N*p.Cout*p.OH*p.OW)*uint64(p.Cin*p.KH*p.KW))
	return out
}

// Conv2DGradInput computes the input gradient of Conv2D.
func (e *Engine) Conv2DGradInput(dy, w *tensor.Tensor, xShape []int, strideH, strideW, padH, padW int) *tensor.Tensor {
	dx := e.arena.New(xShape...)
	p := backend.ConvParams{
		N: xShape[0], Cin: xShape[1], H: xShape[2], W: xShape[3],
		Cout: w.Dim(0), KH: w.Dim(2), KW: w.Dim(3),
		StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW,
		OH: dy.Dim(2), OW: dy.Dim(3),
	}
	e.be.Conv2DGradInput(dy.Data(), w.Data(), dx.Data(), p)
	e.launchConv("conv2d_bwd_input", dy, w, dx, uint64(dy.Size())*uint64(p.Cin*p.KH*p.KW))
	return dx
}

// Conv2DGradWeight computes the filter gradient of Conv2D.
func (e *Engine) Conv2DGradWeight(x, dy *tensor.Tensor, wShape []int, strideH, strideW, padH, padW int) *tensor.Tensor {
	dw := e.arena.New(wShape...)
	p := backend.ConvParams{
		N: x.Dim(0), Cin: x.Dim(1), H: x.Dim(2), W: x.Dim(3),
		Cout: wShape[0], KH: wShape[2], KW: wShape[3],
		StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW,
		OH: dy.Dim(2), OW: dy.Dim(3),
	}
	e.be.Conv2DGradWeight(x.Data(), dy.Data(), dw.Data(), p)
	e.launchConv("conv2d_bwd_weight", x, dy, dw, uint64(dy.Size())*uint64(p.Cin*p.KH*p.KW))
	return dw
}

// MaxPool2D applies non-overlapping k x k max pooling to x (N,C,H,W),
// truncating ragged edges. Returns the pooled tensor and the flat argmax
// index of each output element (for the backward scatter).
func (e *Engine) MaxPool2D(x *tensor.Tensor, k int) (*tensor.Tensor, []int32) {
	if x.Dims() != 4 || k <= 0 {
		shapePanic("MaxPool2D", x)
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := h/k, w/k
	if oh < 1 || ow < 1 {
		panic("ops: MaxPool2D window larger than input")
	}
	out := e.arena.New(n, c, oh, ow)
	arg := make([]int32, out.Size())
	e.be.MaxPool2D(x.Data(), out.Data(), arg, n, c, h, w, k)
	if e.dev != nil {
		elem := e.fpElem()
		un := uint64(x.Size())
		e.launch(&gpu.Kernel{
			Name:    "maxpool2d",
			Class:   gpu.OpReduction,
			Threads: out.Size(),
			Mix: gpu.InstrMix{
				Fp32:    un,
				Int32:   un * 2,
				Load:    un,
				Store:   uint64(out.Size()),
				Control: un,
			},
			Flops: un,
			Iops:  un * 2,
			Accesses: e.accesses([]gpu.Access{
				{Kind: gpu.LoadAccess, Base: e.addr(x), ElemBytes: elem, Count: x.Size(), Stride: 1},
				{Kind: gpu.StoreAccess, Base: e.addr(out), ElemBytes: elem, Count: out.Size(), Stride: 1},
			}),
			CodeBytes: 2 << 10,
			DepChain:  2.0,
		})
	}
	return out, arg
}

// MaxPool2DBackward scatters dy back to the argmax positions.
func (e *Engine) MaxPool2DBackward(dy *tensor.Tensor, arg []int32, xShape []int) *tensor.Tensor {
	dx := e.arena.New(xShape...)
	e.be.ScatterAdd(dx.Data(), dy.Data(), arg)
	if e.dev != nil {
		elem := e.fpElem()
		un := uint64(dy.Size())
		e.launch(&gpu.Kernel{
			Name:    "maxpool2d_bwd",
			Class:   gpu.OpScatter,
			Threads: dy.Size(),
			Mix: gpu.InstrMix{
				Fp32:    un,
				Int32:   un * 4,
				Load:    un * 2,
				Store:   un,
				Control: un,
			},
			Flops: un,
			Iops:  un * 4,
			Accesses: e.accesses([]gpu.Access{
				{Kind: gpu.LoadAccess, Base: e.addr(dy), ElemBytes: elem, Count: dy.Size(), Stride: 1},
				{Kind: gpu.StoreAccess, Base: e.addr(dx), ElemBytes: elem, Indices: arg},
			}),
			CodeBytes: 1 << 10,
			DepChain:  2.0,
		})
	}
	return dx
}

// AddChannelBias adds bias (length C) to every (h,w) site of every channel
// of x (N,C,H,W): the cuDNN tensor-bias op fused after convolutions.
func (e *Engine) AddChannelBias(x, bias *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 4 || bias.Size() != x.Dim(1) {
		shapePanic("AddChannelBias", x, bias)
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := e.arena.New(n, c, h, w)
	e.be.AddChannelBias(out.Data(), x.Data(), bias.Data(), n, c, h*w)
	e.launchElementWise("add_channel_bias", 2, out.Size(), []*tensor.Tensor{x, bias}, out)
	return out
}

// ChannelBiasGrad reduces dy (N,C,H,W) over everything but channels: the
// bias gradient of a convolution, a reduction kernel.
func (e *Engine) ChannelBiasGrad(dy *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := dy.Dim(0), dy.Dim(1), dy.Dim(2), dy.Dim(3)
	out := e.arena.New(c)
	e.be.ChannelBiasGrad(dy.Data(), out.Data(), n, c, h*w)
	e.launchReduction("conv_bias_grad", dy.Size(), c, dy, out)
	return out
}

// launchConv emits the implicit-GEMM convolution recipe; macs is the
// multiply-accumulate count.
func (e *Engine) launchConv(name string, a, b, out *tensor.Tensor, macs uint64) {
	if e.dev == nil {
		return
	}
	elem := e.fpElem()
	outN := uint64(out.Size())
	repA := int(macs/uint64(a.Size())+31) / 32
	if repA < 1 {
		repA = 1
	}
	repB := int(macs/uint64(b.Size())+31) / 32
	if repB < 1 {
		repB = 1
	}
	// Filter-gradient kernels have tiny outputs but huge reductions; cuDNN
	// parallelizes over the reduction (atomics / split accumulation), so
	// thread count follows work, not output size.
	threads := out.Size()
	if workPar := int(macs / 64); workPar > threads {
		threads = workPar
	}
	if threads > 1<<18 {
		threads = 1 << 18
	}
	e.launch(&gpu.Kernel{
		Name:    name,
		Class:   gpu.OpConv,
		Threads: threads,
		Mix: gpu.InstrMix{
			Fp32:    macs,
			Int32:   macs/3 + outN*8,
			Load:    macs / 12,
			Store:   outN,
			Control: macs / 12,
		},
		Flops: 2 * macs,
		Iops:  macs / 3,
		Accesses: e.accesses([]gpu.Access{
			{Kind: gpu.LoadAccess, Base: e.addr(a), ElemBytes: elem, Count: a.Size(), Stride: 1, Repeat: repA},
			{Kind: gpu.LoadAccess, Base: e.addr(b), ElemBytes: elem, Count: b.Size(), Stride: 1, Repeat: repB},
			{Kind: gpu.StoreAccess, Base: e.addr(out), ElemBytes: elem, Count: out.Size(), Stride: 1},
		}),
		// cuDNN implicit-GEMM kernels are heavily unrolled: large SASS.
		CodeBytes: 48 << 10,
		DepChain:  1.25,
		// Thin reductions (Cin*KH*KW below the tile depth) underfill tiles.
		Efficiency: clampEff(float64(macs/uint64(out.Size())) / 192),
		Barriers:   4,
	})
}
