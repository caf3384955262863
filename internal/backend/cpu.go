package backend

import "math"

// cpuBackend is the one Backend implementation. A kernel whose total work
// (in multiply/element units) reaches cutoff is tiled across the shared
// worker pool; below it the kernel's range helper runs over the whole index
// range on the calling goroutine. "serial" is the cutoff at infinity — the
// reference the equivalence tests compare against — and "parallel" is
// minParallelWork. Kernels that are sequential by contract (Dropout's rng
// stream, ScatterAdd's colliding indices, SumAll's loss accumulation) or
// rarely hot (Permute4D) never tile; they sit beside their loops in
// serial.go.
//
// Every parallel decomposition partitions the serial loop nest so that each
// output element is produced by exactly one worker with the same
// accumulation order as the serial kernel — results are bitwise identical,
// which keeps the characterization figures backend-independent. m holds
// the pool metrics of the run the backend was built for (nil: none).
type cpuBackend struct {
	cutoff int
	m      poolMetrics
}

func (be cpuBackend) Name() string {
	if be.cutoff == math.MaxInt {
		return "serial"
	}
	return "parallel"
}

// --- dense matrix products (row tiles) ---

func (be cpuBackend) MatMul(a, b, out []float32, m, n, k int) {
	if m*n*k < be.cutoff {
		gemmRange(a, b, out, n, k, k, 1, 0, m)
		return
	}
	be.parallelFor(m, func(lo, hi int) { gemmRange(a, b, out, n, k, k, 1, lo, hi) })
}

func (be cpuBackend) MatMulTA(a, b, out []float32, m, n, k int) {
	if m*n*k < be.cutoff {
		gemmRange(a, b, out, n, k, 1, m, 0, m)
		return
	}
	be.parallelFor(m, func(lo, hi int) { gemmRange(a, b, out, n, k, 1, m, lo, hi) })
}

func (be cpuBackend) MatMulTB(a, b, out []float32, m, n, k int) {
	bt := getScratch(k * n) // packed once per call: the tiles only read it
	defer putScratch(bt)
	transpose2DRange(bt, b, n, k, 0, n)
	if m*n*k < be.cutoff {
		gemmTBRange(a, bt, out, n, k, false, 0, m)
		return
	}
	be.parallelFor(m, func(lo, hi int) { gemmTBRange(a, bt, out, n, k, false, lo, hi) })
}

// --- sparse (destination-row tiles) ---

func (be cpuBackend) SpMM(rowPtr, colIdx []int32, vals []float32, x, out []float32, rows, f int) {
	if len(colIdx)*f < be.cutoff {
		spMMRange(rowPtr, colIdx, vals, x, out, f, 0, rows)
		return
	}
	be.parallelFor(rows, func(lo, hi int) { spMMRange(rowPtr, colIdx, vals, x, out, f, lo, hi) })
}

// --- convolution ---

func (be cpuBackend) Conv2D(x, w, out []float32, p ConvParams) {
	if p.macs() < be.cutoff {
		conv2DRange(x, w, out, p, 0, p.N*p.Cout)
		return
	}
	be.parallelFor(p.N*p.Cout, func(lo, hi int) { conv2DRange(x, w, out, p, lo, hi) })
}

func (be cpuBackend) Conv2DGradInput(dy, w, dx []float32, p ConvParams) {
	if p.macs() < be.cutoff {
		conv2DGradInputRange(dy, w, dx, p, 0, p.N*p.Cin)
		return
	}
	be.parallelFor(p.N*p.Cin, func(lo, hi int) { conv2DGradInputRange(dy, w, dx, p, lo, hi) })
}

func (be cpuBackend) Conv2DGradWeight(x, dy, dw []float32, p ConvParams) {
	if p.macs() < be.cutoff {
		conv2DGradWeightRange(x, dy, dw, p, 0, p.Cout)
		return
	}
	be.parallelFor(p.Cout, func(lo, hi int) { conv2DGradWeightRange(x, dy, dw, p, lo, hi) })
}

func (be cpuBackend) MaxPool2D(x, out []float32, arg []int32, n, c, h, w, k int) {
	if n*c*h*w < be.cutoff {
		maxPool2DRange(x, out, arg, h, w, k, 0, n*c)
		return
	}
	be.parallelFor(n*c, func(lo, hi int) { maxPool2DRange(x, out, arg, h, w, k, lo, hi) })
}

// --- gather / scatter rows ---

func (be cpuBackend) GatherRows(x, out []float32, idx []int32, f int) {
	if len(idx)*f < be.cutoff {
		gatherRowsRange(x, out, idx, f, 0, len(idx))
		return
	}
	be.parallelFor(len(idx), func(lo, hi int) { gatherRowsRange(x, out, idx, f, lo, hi) })
}

// ScatterAddRows partitions feature columns, not rows: idx may name the
// same destination row repeatedly, so a row partition would race while a
// column partition keeps each dst element owned by one worker.
func (be cpuBackend) ScatterAddRows(dst, src []float32, idx []int32, f int) {
	if len(idx)*f < be.cutoff || f < 2 {
		scatterAddRowsRange(dst, src, idx, f, 0, f)
		return
	}
	be.parallelFor(f, func(lo, hi int) { scatterAddRowsRange(dst, src, idx, f, lo, hi) })
}

// --- reductions (SumAll never tiles: serial.go) ---

func (be cpuBackend) SumRows(x, out []float32, n, f int) {
	if n*f < be.cutoff || f < 2 {
		sumRowsRange(x, out, n, f, 0, f)
		return
	}
	be.parallelFor(f, func(lo, hi int) { sumRowsRange(x, out, n, f, lo, hi) })
}

func (be cpuBackend) SumCols(x, out []float32, n, f int) {
	if n*f < be.cutoff {
		sumColsRange(x, out, f, 0, n)
		return
	}
	be.parallelFor(n, func(lo, hi int) { sumColsRange(x, out, f, lo, hi) })
}

func (be cpuBackend) MaxCols(x, out []float32, arg []int32, n, f int) {
	if n*f < be.cutoff {
		maxColsRange(x, out, arg, f, 0, n)
		return
	}
	be.parallelFor(n, func(lo, hi int) { maxColsRange(x, out, arg, f, lo, hi) })
}

func (be cpuBackend) Softmax(x, out []float32, n, f int) {
	if n*f < be.cutoff {
		softmaxRange(x, out, f, 0, n)
		return
	}
	be.parallelFor(n, func(lo, hi int) { softmaxRange(x, out, f, lo, hi) })
}

func (be cpuBackend) LogSoftmax(x, out []float32, n, f int) {
	if n*f < be.cutoff {
		logSoftmaxRange(x, out, f, 0, n)
		return
	}
	be.parallelFor(n, func(lo, hi int) { logSoftmaxRange(x, out, f, lo, hi) })
}

// --- element-wise (flat chunk tiles) ---

func (be cpuBackend) Add(out, a, b []float32) {
	if n := len(out); n < be.cutoff {
		addRange(out, a, b, 0, n)
		return
	}
	be.parallelFor(len(out), func(lo, hi int) { addRange(out, a, b, lo, hi) })
}

func (be cpuBackend) Sub(out, a, b []float32) {
	if n := len(out); n < be.cutoff {
		subRange(out, a, b, 0, n)
		return
	}
	be.parallelFor(len(out), func(lo, hi int) { subRange(out, a, b, lo, hi) })
}

func (be cpuBackend) Mul(out, a, b []float32) {
	if n := len(out); n < be.cutoff {
		mulRange(out, a, b, 0, n)
		return
	}
	be.parallelFor(len(out), func(lo, hi int) { mulRange(out, a, b, lo, hi) })
}

func (be cpuBackend) Scale(out, a []float32, s float32) {
	if n := len(out); n < be.cutoff {
		scaleRange(out, a, s, 0, n)
		return
	}
	be.parallelFor(len(out), func(lo, hi int) { scaleRange(out, a, s, lo, hi) })
}

func (be cpuBackend) AddScalar(out, a []float32, s float32) {
	if n := len(out); n < be.cutoff {
		addScalarRange(out, a, s, 0, n)
		return
	}
	be.parallelFor(len(out), func(lo, hi int) { addScalarRange(out, a, s, lo, hi) })
}

func (be cpuBackend) AddScaled(out, a, b []float32, s float32) {
	if n := len(out); n < be.cutoff {
		addScaledRange(out, a, b, s, 0, n)
		return
	}
	be.parallelFor(len(out), func(lo, hi int) { addScaledRange(out, a, b, s, lo, hi) })
}

func (be cpuBackend) ReLU(out, x []float32) {
	if n := len(out); n < be.cutoff {
		reluRange(out, x, 0, n)
		return
	}
	be.parallelFor(len(out), func(lo, hi int) { reluRange(out, x, lo, hi) })
}

func (be cpuBackend) ReLUBackward(out, x, dy []float32) {
	if n := len(out); n < be.cutoff {
		reluBackwardRange(out, x, dy, 0, n)
		return
	}
	be.parallelFor(len(out), func(lo, hi int) { reluBackwardRange(out, x, dy, lo, hi) })
}

func (be cpuBackend) PReLU(out, x []float32, alpha float32) {
	if n := len(out); n < be.cutoff {
		preluRange(out, x, alpha, 0, n)
		return
	}
	be.parallelFor(len(out), func(lo, hi int) { preluRange(out, x, alpha, lo, hi) })
}

func (be cpuBackend) Sigmoid(out, x []float32) {
	if n := len(out); n < be.cutoff {
		sigmoidRange(out, x, 0, n)
		return
	}
	be.parallelFor(len(out), func(lo, hi int) { sigmoidRange(out, x, lo, hi) })
}

func (be cpuBackend) Tanh(out, x []float32) {
	if n := len(out); n < be.cutoff {
		tanhRange(out, x, 0, n)
		return
	}
	be.parallelFor(len(out), func(lo, hi int) { tanhRange(out, x, lo, hi) })
}

func (be cpuBackend) Exp(out, x []float32) {
	if n := len(out); n < be.cutoff {
		expRange(out, x, 0, n)
		return
	}
	be.parallelFor(len(out), func(lo, hi int) { expRange(out, x, lo, hi) })
}

// --- bias / layout ---

func (be cpuBackend) AddBiasRows(out, x, bias []float32, n, f int) {
	if n*f < be.cutoff {
		addBiasRowsRange(out, x, bias, f, 0, n)
		return
	}
	be.parallelFor(n, func(lo, hi int) { addBiasRowsRange(out, x, bias, f, lo, hi) })
}

func (be cpuBackend) Transpose2D(out, x []float32, n, f int) {
	if n*f < be.cutoff {
		transpose2DRange(out, x, n, f, 0, n)
		return
	}
	be.parallelFor(n, func(lo, hi int) { transpose2DRange(out, x, n, f, lo, hi) })
}

func (be cpuBackend) AddChannelBias(out, x, bias []float32, n, c, plane int) {
	if n*c*plane < be.cutoff {
		addChannelBiasRange(out, x, bias, c, plane, 0, n*c)
		return
	}
	be.parallelFor(n*c, func(lo, hi int) { addChannelBiasRange(out, x, bias, c, plane, lo, hi) })
}

func (be cpuBackend) ChannelBiasGrad(dy, out []float32, n, c, plane int) {
	if n*c*plane < be.cutoff || c < 2 {
		channelBiasGradRange(dy, out, n, c, plane, 0, c)
		return
	}
	be.parallelFor(c, func(lo, hi int) { channelBiasGradRange(dy, out, n, c, plane, lo, hi) })
}

// --- norms ---

func (be cpuBackend) BatchNormStats(x, mean, variance []float32, n, f int) {
	if n*f < be.cutoff || f < 2 {
		batchNormStatsRange(x, mean, variance, n, f, 0, f)
		return
	}
	be.parallelFor(f, func(lo, hi int) { batchNormStatsRange(x, mean, variance, n, f, lo, hi) })
}

func (be cpuBackend) BatchNormApply(x, mean, variance, gamma, beta, out []float32, n, f int, eps float32) {
	inv := batchNormInvStd(variance, eps)
	if n*f < be.cutoff {
		batchNormApplyRange(x, mean, inv, gamma, beta, out, f, 0, n)
		return
	}
	be.parallelFor(n, func(lo, hi int) { batchNormApplyRange(x, mean, inv, gamma, beta, out, f, lo, hi) })
}

func (be cpuBackend) BatchNormBackward(xhat, dy, variance, gamma, dx, dgamma, dbeta []float32, n, f int, eps float32) {
	if n*f < be.cutoff || f < 2 {
		batchNormBackwardRange(xhat, dy, variance, gamma, dx, dgamma, dbeta, n, f, eps, 0, f)
		return
	}
	be.parallelFor(f, func(lo, hi int) {
		batchNormBackwardRange(xhat, dy, variance, gamma, dx, dgamma, dbeta, n, f, eps, lo, hi)
	})
}

func (be cpuBackend) LayerNormForward(x, gamma, beta, out, xhat, invStd []float32, n, f int, eps float32) {
	if n*f < be.cutoff {
		layerNormForwardRange(x, gamma, beta, out, xhat, invStd, f, eps, 0, n)
		return
	}
	be.parallelFor(n, func(lo, hi int) { layerNormForwardRange(x, gamma, beta, out, xhat, invStd, f, eps, lo, hi) })
}

func (be cpuBackend) LayerNormBackward(xhat, invStd, dy, gamma, dx, dgamma, dbeta []float32, n, f int) {
	if n*f < be.cutoff {
		layerNormDXRange(xhat, invStd, dy, gamma, dx, f, 0, n)
		layerNormDParamsRange(xhat, dy, dgamma, dbeta, n, f, 0, f)
		return
	}
	be.parallelFor(n, func(lo, hi int) { layerNormDXRange(xhat, invStd, dy, gamma, dx, f, lo, hi) })
	if f < 2 {
		layerNormDParamsRange(xhat, dy, dgamma, dbeta, n, f, 0, f)
		return
	}
	be.parallelFor(f, func(lo, hi int) { layerNormDParamsRange(xhat, dy, dgamma, dbeta, n, f, lo, hi) })
}

func (be cpuBackend) BatchNorm2D(x, gamma, beta, out, xhat, variance []float32, b, c, plane int, eps float32) {
	if b*c*plane < be.cutoff || c < 2 {
		batchNorm2DRange(x, gamma, beta, out, xhat, variance, b, c, plane, eps, 0, c)
		return
	}
	be.parallelFor(c, func(lo, hi int) {
		batchNorm2DRange(x, gamma, beta, out, xhat, variance, b, c, plane, eps, lo, hi)
	})
}

func (be cpuBackend) BatchNorm2DBackward(xhat, dy, variance, gamma, dx, dgamma, dbeta []float32, b, c, plane int, eps float32) {
	if b*c*plane < be.cutoff || c < 2 {
		batchNorm2DBackwardRange(xhat, dy, variance, gamma, dx, dgamma, dbeta, b, c, plane, eps, 0, c)
		return
	}
	be.parallelFor(c, func(lo, hi int) {
		batchNorm2DBackwardRange(xhat, dy, variance, gamma, dx, dgamma, dbeta, b, c, plane, eps, lo, hi)
	})
}

// --- fused cells ---

func (be cpuBackend) GLU4D(x, out, gate []float32, b, c, plane int) {
	if b*c*plane < be.cutoff {
		glu4DRange(x, out, gate, c, plane, 0, b*c)
		return
	}
	be.parallelFor(b*c, func(lo, hi int) { glu4DRange(x, out, gate, c, plane, lo, hi) })
}

func (be cpuBackend) GLU4DBackward(x, gate, dy, dx []float32, b, c, plane int) {
	if b*c*plane < be.cutoff {
		glu4DBackwardRange(x, gate, dy, dx, c, plane, 0, b*c)
		return
	}
	be.parallelFor(b*c, func(lo, hi int) { glu4DBackwardRange(x, gate, dy, dx, c, plane, lo, hi) })
}

func (be cpuBackend) LSTMCellForward(gates, cPrev, gi, gf, gg, go_, cNew, h []float32, b, hd int) {
	if b*hd < be.cutoff {
		lstmCellForwardRange(gates, cPrev, gi, gf, gg, go_, cNew, h, hd, 0, b)
		return
	}
	be.parallelFor(b, func(lo, hi int) { lstmCellForwardRange(gates, cPrev, gi, gf, gg, go_, cNew, h, hd, lo, hi) })
}

func (be cpuBackend) LSTMCellBackward(gi, gf, gg, go_, cPrev, cNew, dH, dC, dGates, dCPrev []float32, b, hd int) {
	if b*hd < be.cutoff {
		lstmCellBackwardRange(gi, gf, gg, go_, cPrev, cNew, dH, dC, dGates, dCPrev, hd, 0, b)
		return
	}
	be.parallelFor(b, func(lo, hi int) {
		lstmCellBackwardRange(gi, gf, gg, go_, cPrev, cNew, dH, dC, dGates, dCPrev, hd, lo, hi)
	})
}

// --- losses ---

func (be cpuBackend) BCEWithLogits(logits, targets, out []float32) {
	if n := len(out); n < be.cutoff {
		bceWithLogitsRange(logits, targets, out, 0, n)
		return
	}
	be.parallelFor(len(out), func(lo, hi int) { bceWithLogitsRange(logits, targets, out, lo, hi) })
}

func (be cpuBackend) BCEWithLogitsBackward(logits, targets, dx []float32, g float32) {
	if n := len(dx); n < be.cutoff {
		bceWithLogitsBackwardRange(logits, targets, dx, g, 0, n)
		return
	}
	be.parallelFor(len(dx), func(lo, hi int) { bceWithLogitsBackwardRange(logits, targets, dx, g, lo, hi) })
}

// --- optimizer steps ---

func (be cpuBackend) SGDStep(p, g, buf []float32, lr, momentum, weightDecay float32) {
	if n := len(p); n < be.cutoff {
		sgdStepRange(p, g, buf, lr, momentum, weightDecay, 0, n)
		return
	}
	be.parallelFor(len(p), func(lo, hi int) { sgdStepRange(p, g, buf, lr, momentum, weightDecay, lo, hi) })
}

func (be cpuBackend) AdamStep(p, g, m, v []float32, lr, beta1, beta2, eps float32, step int) {
	bc1, bc2 := adamBias(beta1, beta2, step)
	if n := len(p); n < be.cutoff {
		adamStepRange(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2, 0, n)
		return
	}
	be.parallelFor(len(p), func(lo, hi int) { adamStepRange(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2, lo, hi) })
}
