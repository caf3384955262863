// Package backend defines the pluggable CPU numerics layer of the GNNMark
// training stack. A Backend implements the raw float32 kernels — dense and
// sparse matrix products, convolutions, gathers/scatters, reductions,
// normalizations, fused cells, and element-wise maps — that internal/ops
// orchestrates. The op engine owns shape checking, tensor allocation, and
// GPU-kernel lowering; backends own nothing but arithmetic over raw slices.
//
// One implementation ships under two names: "serial" runs every kernel on
// the calling goroutine, and "parallel" tiles kernels above a work cutoff
// across a shared package-level worker pool while producing
// bitwise-identical results (every parallel decomposition preserves the
// serial per-element accumulation order).
package backend

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gnnmark/internal/obs"
)

// ConvParams carries the geometry of a 2-D convolution over NCHW tensors.
// OH and OW are the output spatial dimensions (already validated by the
// caller).
type ConvParams struct {
	N, Cin, H, W                 int
	Cout, KH, KW                 int
	StrideH, StrideW, PadH, PadW int
	OH, OW                       int
}

// macs returns the multiply-accumulate count of the forward convolution,
// the work estimate all three conv kernels share.
func (p ConvParams) macs() int {
	return p.N * p.Cout * p.OH * p.OW * p.Cin * p.KH * p.KW
}

// Backend is the raw numerics surface. All matrices are dense row-major
// float32 slices; methods write into caller-allocated output slices (which
// arrive zero-filled unless documented otherwise). Implementations must be
// safe for concurrent use by independent callers.
type Backend interface {
	// Name returns the registry name ("serial", "parallel").
	Name() string

	// MatMul accumulates a (m,k) @ b (k,n) into out (m,n).
	MatMul(a, b, out []float32, m, n, k int)
	// MatMulTA accumulates aᵀ @ b into out (m,n) for a stored (k,m).
	MatMulTA(a, b, out []float32, m, n, k int)
	// MatMulTB writes a @ bᵀ into out (m,n) for b stored (n,k).
	MatMulTB(a, b, out []float32, m, n, k int)

	// SpMM accumulates A @ x into out (rows,f) for a CSR adjacency A with
	// optional edge weights vals (nil = unweighted).
	SpMM(rowPtr, colIdx []int32, vals []float32, x, out []float32, rows, f int)

	// Conv2D accumulates the dense convolution of x with filters w into out.
	Conv2D(x, w, out []float32, p ConvParams)
	// Conv2DGradInput accumulates the input gradient into dx.
	Conv2DGradInput(dy, w, dx []float32, p ConvParams)
	// Conv2DGradWeight accumulates the filter gradient into dw.
	Conv2DGradWeight(x, dy, dw []float32, p ConvParams)
	// MaxPool2D applies non-overlapping k x k max pooling over x
	// (n,c,h,w), writing pooled values and flat argmax indices.
	MaxPool2D(x, out []float32, arg []int32, n, c, h, w, k int)
	// ScatterAdd accumulates src[i] into dst[idx[i]].
	ScatterAdd(dst, src []float32, idx []int32)

	// GatherRows copies x's rows named by idx into out (len(idx),f).
	GatherRows(x, out []float32, idx []int32, f int)
	// ScatterAddRows accumulates src rows into dst rows named by idx.
	ScatterAddRows(dst, src []float32, idx []int32, f int)

	// SumAll returns the float64 sum of x.
	SumAll(x []float32) float64
	// SumRows accumulates x (n,f) over rows into out (f).
	SumRows(x, out []float32, n, f int)
	// SumCols writes the row sums of x (n,f) into out (n).
	SumCols(x, out []float32, n, f int)
	// MaxCols writes row-wise maxima of x (n,f) and their argmax indices.
	MaxCols(x, out []float32, arg []int32, n, f int)
	// Softmax writes the numerically stabilized row-wise softmax.
	Softmax(x, out []float32, n, f int)
	// LogSoftmax writes the row-wise log-softmax.
	LogSoftmax(x, out []float32, n, f int)

	// Element-wise zips and maps over equal-length slices.
	Add(out, a, b []float32)
	Sub(out, a, b []float32)
	Mul(out, a, b []float32)
	Scale(out, a []float32, s float32)
	AddScalar(out, a []float32, s float32)
	AddScaled(out, a, b []float32, s float32)
	ReLU(out, x []float32)
	ReLUBackward(out, x, dy []float32)
	PReLU(out, x []float32, alpha float32)
	Sigmoid(out, x []float32)
	Tanh(out, x []float32)
	Exp(out, x []float32)
	// Dropout zeroes each element with probability p and scales survivors
	// by 1/(1-p), writing the kept mask. The rng stream is drawn in index
	// order as part of the numerics contract, so it runs serially under
	// every backend.
	Dropout(x, out, mask []float32, p float32, rng *rand.Rand)

	// AddBiasRows adds bias (f) to every row of x (n,f).
	AddBiasRows(out, x, bias []float32, n, f int)
	// Transpose2D writes xᵀ (f,n) for x (n,f).
	Transpose2D(out, x []float32, n, f int)
	// Permute4D reorders a 4-D tensor: output dim i is input dim perm[i].
	Permute4D(x, out []float32, in, perm [4]int)
	// AddChannelBias adds bias (c) to each plane of x (n,c,plane).
	AddChannelBias(out, x, bias []float32, n, c, plane int)
	// ChannelBiasGrad accumulates dy (n,c,plane) over all but channels.
	ChannelBiasGrad(dy, out []float32, n, c, plane int)

	// BatchNormStats accumulates per-column mean and variance of x (n,f).
	BatchNormStats(x, mean, variance []float32, n, f int)
	// BatchNormApply writes gamma*(x-mean)/sqrt(var+eps) + beta.
	BatchNormApply(x, mean, variance, gamma, beta, out []float32, n, f int, eps float32)
	// BatchNormBackward accumulates the gradients of BatchNormApply.
	BatchNormBackward(xhat, dy, variance, gamma, dx, dgamma, dbeta []float32, n, f int, eps float32)
	// LayerNormForward normalizes rows of x, writing out, xhat, invStd.
	LayerNormForward(x, gamma, beta, out, xhat, invStd []float32, n, f int, eps float32)
	// LayerNormBackward accumulates the gradients of LayerNormForward.
	LayerNormBackward(xhat, invStd, dy, gamma, dx, dgamma, dbeta []float32, n, f int)
	// BatchNorm2D normalizes x (b,c,plane) per channel, writing out, xhat,
	// and per-channel variance.
	BatchNorm2D(x, gamma, beta, out, xhat, variance []float32, b, c, plane int, eps float32)
	// BatchNorm2DBackward accumulates the gradients of BatchNorm2D.
	BatchNorm2DBackward(xhat, dy, variance, gamma, dx, dgamma, dbeta []float32, b, c, plane int, eps float32)

	// GLU4D computes out = x[:, :c] * sigmoid(x[:, c:]) over (b,2c,plane),
	// also writing the gate activations.
	GLU4D(x, out, gate []float32, b, c, plane int)
	// GLU4DBackward writes the input gradient of GLU4D.
	GLU4DBackward(x, gate, dy, dx []float32, b, c, plane int)
	// LSTMCellForward applies the fused LSTM pointwise cell to
	// pre-activation gates (b,4h) in i,f,g,o layout and cPrev (b,h),
	// writing the gate activations, new cell state, and hidden state.
	LSTMCellForward(gates, cPrev, gi, gf, gg, go_, cNew, h []float32, b, hd int)
	// LSTMCellBackward writes the gate-preactivation gradient (b,4h) and
	// previous-cell gradient (b,h); dH and dC may be nil for zero.
	LSTMCellBackward(gi, gf, gg, go_, cPrev, cNew, dH, dC, dGates, dCPrev []float32, b, hd int)

	// BCEWithLogits writes the stabilized per-element BCE of
	// sigmoid(logits) against targets.
	BCEWithLogits(logits, targets, out []float32)
	// BCEWithLogitsBackward writes (sigmoid(logits) - targets) * g.
	BCEWithLogitsBackward(logits, targets, dx []float32, g float32)

	// SGDStep applies one in-place SGD update (buf nil = no momentum).
	SGDStep(p, g, buf []float32, lr, momentum, weightDecay float32)
	// AdamStep applies one in-place Adam update; step is 1-based.
	AdamStep(p, g, m, v []float32, lr, beta1, beta2, eps float32, step int)
}

// New returns the backend registered under name ("" is serial), recording
// its worker pool into run. Parallel instances share one process-wide pool;
// results are bitwise identical to serial.
func New(name string, run *obs.Run) (Backend, error) {
	switch name {
	case "", "serial":
		return cpuBackend{math.MaxInt, newPoolMetrics(run)}, nil
	case "parallel":
		return cpuBackend{minParallelWork, newPoolMetrics(run)}, nil
	}
	names := Names()
	sort.Strings(names)
	return nil, fmt.Errorf("backend: unknown backend %q (have %v)", name, names)
}

// Names lists the registered backend names.
func Names() []string { return []string{"serial", "parallel"} }

// Default returns the serial backend: today's exact single-threaded
// numerics.
func Default() Backend { return NewSerial() }

// NewSerial returns the single-threaded reference backend: a cutoff no
// kernel's work count reaches.
func NewSerial() Backend { return cpuBackend{cutoff: math.MaxInt} }
