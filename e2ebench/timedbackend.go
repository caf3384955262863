package main

import (
	"math"
	"math/rand"
	"time"

	"gnnmark/internal/backend"
)

// family groups backend methods the way the per-layer report names them.
type family int

const (
	famGemm family = iota
	famConv
	famSpmm
	famGatherScatter
	famReduce
	famElementwise
	famNorm
	famFused
	famOptim
	numFamilies
)

var familyNames = [numFamilies]string{
	"gemm", "conv", "spmm", "gather_scatter", "reduce", "elementwise", "norm", "fused", "optim",
}

// familyStats is what the wrapper accumulates per family.
type familyStats struct {
	busyNs int64
	calls  int64
}

// timedBackend forwards every backend.Backend method to inner and stamps it.
// It embeds nothing: a method added to the interface fails to compile here
// instead of running untimed and silently shrinking backend.total.busy_s.
// Engines call it from one goroutine at a time (serve replicas hand off
// over channels), so the counters need no lock.
type timedBackend struct {
	inner backend.Backend
	tr    *tracer
	// paused stops the stamps (calls are still forwarded): GW's extra
	// drift epochs are not part of the pass. The operand scan goes on.
	paused bool
	fam    [numFamilies]familyStats
	// 2mnk of every GEMM and 2*MACs of every convolution.
	gemmFlops, convFlops float64
	// GEMM operand elements scanned, and how many were subnormal float32.
	gemmElems, gemmSubnormal int64
}

var _ backend.Backend = (*timedBackend)(nil)

func newTimedBackend(inner backend.Backend, tr *tracer) *timedBackend {
	return &timedBackend{inner: inner, tr: tr}
}

// Name is the one method that is not numerics: it is forwarded unstamped.
func (t *timedBackend) Name() string { return t.inner.Name() }

// time stamps one call: the returned func, deferred, credits the elapsed
// host time to the method's family and to the open span's children.
func (t *timedBackend) time(method string) func() {
	if t.paused {
		return func() {}
	}
	f := &t.fam[methodFamily[method]]
	start := time.Now()
	return func() {
		d := int64(time.Since(start))
		f.busyNs += d
		f.calls++
		t.tr.child(d)
	}
}

// gemmWork counts a GEMM's FLOPs and scans its operands for subnormals,
// outside the stamp. Subnormal operands are what makes GW's epochs slow
// down with identical shapes (see README.md).
func (t *timedBackend) gemmWork(a, b []float32, m, n, k int) {
	if !t.paused {
		t.gemmFlops += 2 * float64(m) * float64(n) * float64(k)
	}
	t.gemmElems += int64(len(a) + len(b))
	t.gemmSubnormal += subnormals(a) + subnormals(b)
}

func (t *timedBackend) convWork(p backend.ConvParams) {
	if t.paused {
		return
	}
	t.convFlops += 2 * float64(p.N*p.Cout*p.OH*p.OW) * float64(p.Cin*p.KH*p.KW)
}

// subnormals counts the float32 values with a zero exponent and a non-zero
// mantissa.
func subnormals(x []float32) int64 {
	var n int64
	for _, v := range x {
		if u := math.Float32bits(v); u&0x7f800000 == 0 && u&0x007fffff != 0 {
			n++
		}
	}
	return n
}

func (t *timedBackend) totalBusy() time.Duration {
	var ns int64
	for _, f := range t.fam {
		ns += f.busyNs
	}
	return time.Duration(ns)
}

// metrics reports the families that did any work.
func (t *timedBackend) metrics() []metric {
	var ms []metric
	for i, f := range t.fam {
		if f.calls == 0 {
			continue
		}
		ms = append(ms,
			hostMetric("backend."+familyNames[i]+".busy_s", "s", time.Duration(f.busyNs).Seconds()),
			countMetric("backend."+familyNames[i]+".calls", "count", float64(f.calls)))
	}
	ms = append(ms, hostMetric("backend.total.busy_s", "s", t.totalBusy().Seconds()))
	if g := t.fam[famGemm]; g.calls > 0 {
		ms = append(ms,
			hostMetric("backend.gemm.gflops", "GFLOP/s", ratio(t.gemmFlops, float64(g.busyNs))),
			countMetric("backend.gemm.subnormal_ratio", "ratio", ratio(float64(t.gemmSubnormal), float64(t.gemmElems))))
	}
	if c := t.fam[famConv]; c.calls > 0 && t.convFlops > 0 {
		ms = append(ms, hostMetric("backend.conv.gflops", "GFLOP/s", ratio(t.convFlops, float64(c.busyNs))))
	}
	return ms
}

// methodFamily maps every backend.Backend method but Name to its one family.
var methodFamily = map[string]family{
	"MatMul":                famGemm,
	"MatMulTA":              famGemm,
	"MatMulTB":              famGemm,
	"SpMM":                  famSpmm,
	"Conv2D":                famConv,
	"Conv2DGradInput":       famConv,
	"Conv2DGradWeight":      famConv,
	"MaxPool2D":             famConv,
	"ScatterAdd":            famGatherScatter,
	"GatherRows":            famGatherScatter,
	"ScatterAddRows":        famGatherScatter,
	"SumAll":                famReduce,
	"SumRows":               famReduce,
	"SumCols":               famReduce,
	"MaxCols":               famReduce,
	"Softmax":               famReduce,
	"LogSoftmax":            famReduce,
	"Add":                   famElementwise,
	"Sub":                   famElementwise,
	"Mul":                   famElementwise,
	"Scale":                 famElementwise,
	"AddScalar":             famElementwise,
	"AddScaled":             famElementwise,
	"ReLU":                  famElementwise,
	"ReLUBackward":          famElementwise,
	"PReLU":                 famElementwise,
	"Sigmoid":               famElementwise,
	"Tanh":                  famElementwise,
	"Exp":                   famElementwise,
	"Dropout":               famElementwise,
	"AddBiasRows":           famElementwise,
	"Transpose2D":           famElementwise,
	"Permute4D":             famElementwise,
	"AddChannelBias":        famElementwise,
	"ChannelBiasGrad":       famElementwise,
	"BatchNormStats":        famNorm,
	"BatchNormApply":        famNorm,
	"BatchNormBackward":     famNorm,
	"LayerNormForward":      famNorm,
	"LayerNormBackward":     famNorm,
	"BatchNorm2D":           famNorm,
	"BatchNorm2DBackward":   famNorm,
	"GLU4D":                 famFused,
	"GLU4DBackward":         famFused,
	"LSTMCellForward":       famFused,
	"LSTMCellBackward":      famFused,
	"BCEWithLogits":         famElementwise,
	"BCEWithLogitsBackward": famElementwise,
	"SGDStep":               famOptim,
	"AdamStep":              famOptim,
}

func (t *timedBackend) MatMul(a, b, out []float32, m, n, k int) {
	t.gemmWork(a, b, m, n, k)
	defer t.time("MatMul")()
	t.inner.MatMul(a, b, out, m, n, k)
}

func (t *timedBackend) MatMulTA(a, b, out []float32, m, n, k int) {
	t.gemmWork(a, b, m, n, k)
	defer t.time("MatMulTA")()
	t.inner.MatMulTA(a, b, out, m, n, k)
}

func (t *timedBackend) MatMulTB(a, b, out []float32, m, n, k int) {
	t.gemmWork(a, b, m, n, k)
	defer t.time("MatMulTB")()
	t.inner.MatMulTB(a, b, out, m, n, k)
}

func (t *timedBackend) SpMM(rowPtr, colIdx []int32, vals []float32, x, out []float32, rows, f int) {
	defer t.time("SpMM")()
	t.inner.SpMM(rowPtr, colIdx, vals, x, out, rows, f)
}

func (t *timedBackend) Conv2D(x, w, out []float32, p backend.ConvParams) {
	t.convWork(p)
	defer t.time("Conv2D")()
	t.inner.Conv2D(x, w, out, p)
}

func (t *timedBackend) Conv2DGradInput(dy, w, dx []float32, p backend.ConvParams) {
	t.convWork(p)
	defer t.time("Conv2DGradInput")()
	t.inner.Conv2DGradInput(dy, w, dx, p)
}

func (t *timedBackend) Conv2DGradWeight(x, dy, dw []float32, p backend.ConvParams) {
	t.convWork(p)
	defer t.time("Conv2DGradWeight")()
	t.inner.Conv2DGradWeight(x, dy, dw, p)
}

func (t *timedBackend) MaxPool2D(x, out []float32, arg []int32, n, c, h, w, k int) {
	defer t.time("MaxPool2D")()
	t.inner.MaxPool2D(x, out, arg, n, c, h, w, k)
}

func (t *timedBackend) ScatterAdd(dst, src []float32, idx []int32) {
	defer t.time("ScatterAdd")()
	t.inner.ScatterAdd(dst, src, idx)
}

func (t *timedBackend) GatherRows(x, out []float32, idx []int32, f int) {
	defer t.time("GatherRows")()
	t.inner.GatherRows(x, out, idx, f)
}

func (t *timedBackend) ScatterAddRows(dst, src []float32, idx []int32, f int) {
	defer t.time("ScatterAddRows")()
	t.inner.ScatterAddRows(dst, src, idx, f)
}

func (t *timedBackend) SumAll(x []float32) float64 {
	defer t.time("SumAll")()
	return t.inner.SumAll(x)
}

func (t *timedBackend) SumRows(x, out []float32, n, f int) {
	defer t.time("SumRows")()
	t.inner.SumRows(x, out, n, f)
}

func (t *timedBackend) SumCols(x, out []float32, n, f int) {
	defer t.time("SumCols")()
	t.inner.SumCols(x, out, n, f)
}

func (t *timedBackend) MaxCols(x, out []float32, arg []int32, n, f int) {
	defer t.time("MaxCols")()
	t.inner.MaxCols(x, out, arg, n, f)
}

func (t *timedBackend) Softmax(x, out []float32, n, f int) {
	defer t.time("Softmax")()
	t.inner.Softmax(x, out, n, f)
}

func (t *timedBackend) LogSoftmax(x, out []float32, n, f int) {
	defer t.time("LogSoftmax")()
	t.inner.LogSoftmax(x, out, n, f)
}

func (t *timedBackend) Add(out, a, b []float32) {
	defer t.time("Add")()
	t.inner.Add(out, a, b)
}

func (t *timedBackend) Sub(out, a, b []float32) {
	defer t.time("Sub")()
	t.inner.Sub(out, a, b)
}

func (t *timedBackend) Mul(out, a, b []float32) {
	defer t.time("Mul")()
	t.inner.Mul(out, a, b)
}

func (t *timedBackend) Scale(out, a []float32, s float32) {
	defer t.time("Scale")()
	t.inner.Scale(out, a, s)
}

func (t *timedBackend) AddScalar(out, a []float32, s float32) {
	defer t.time("AddScalar")()
	t.inner.AddScalar(out, a, s)
}

func (t *timedBackend) AddScaled(out, a, b []float32, s float32) {
	defer t.time("AddScaled")()
	t.inner.AddScaled(out, a, b, s)
}

func (t *timedBackend) ReLU(out, x []float32) {
	defer t.time("ReLU")()
	t.inner.ReLU(out, x)
}

func (t *timedBackend) ReLUBackward(out, x, dy []float32) {
	defer t.time("ReLUBackward")()
	t.inner.ReLUBackward(out, x, dy)
}

func (t *timedBackend) PReLU(out, x []float32, alpha float32) {
	defer t.time("PReLU")()
	t.inner.PReLU(out, x, alpha)
}

func (t *timedBackend) Sigmoid(out, x []float32) {
	defer t.time("Sigmoid")()
	t.inner.Sigmoid(out, x)
}

func (t *timedBackend) Tanh(out, x []float32) {
	defer t.time("Tanh")()
	t.inner.Tanh(out, x)
}

func (t *timedBackend) Exp(out, x []float32) {
	defer t.time("Exp")()
	t.inner.Exp(out, x)
}

func (t *timedBackend) Dropout(x, out, mask []float32, p float32, rng *rand.Rand) {
	defer t.time("Dropout")()
	t.inner.Dropout(x, out, mask, p, rng)
}

func (t *timedBackend) AddBiasRows(out, x, bias []float32, n, f int) {
	defer t.time("AddBiasRows")()
	t.inner.AddBiasRows(out, x, bias, n, f)
}

func (t *timedBackend) Transpose2D(out, x []float32, n, f int) {
	defer t.time("Transpose2D")()
	t.inner.Transpose2D(out, x, n, f)
}

func (t *timedBackend) Permute4D(x, out []float32, in, perm [4]int) {
	defer t.time("Permute4D")()
	t.inner.Permute4D(x, out, in, perm)
}

func (t *timedBackend) AddChannelBias(out, x, bias []float32, n, c, plane int) {
	defer t.time("AddChannelBias")()
	t.inner.AddChannelBias(out, x, bias, n, c, plane)
}

func (t *timedBackend) ChannelBiasGrad(dy, out []float32, n, c, plane int) {
	defer t.time("ChannelBiasGrad")()
	t.inner.ChannelBiasGrad(dy, out, n, c, plane)
}

func (t *timedBackend) BatchNormStats(x, mean, variance []float32, n, f int) {
	defer t.time("BatchNormStats")()
	t.inner.BatchNormStats(x, mean, variance, n, f)
}

func (t *timedBackend) BatchNormApply(x, mean, variance, gamma, beta, out []float32, n, f int, eps float32) {
	defer t.time("BatchNormApply")()
	t.inner.BatchNormApply(x, mean, variance, gamma, beta, out, n, f, eps)
}

func (t *timedBackend) BatchNormBackward(xhat, dy, variance, gamma, dx, dgamma, dbeta []float32, n, f int, eps float32) {
	defer t.time("BatchNormBackward")()
	t.inner.BatchNormBackward(xhat, dy, variance, gamma, dx, dgamma, dbeta, n, f, eps)
}

func (t *timedBackend) LayerNormForward(x, gamma, beta, out, xhat, invStd []float32, n, f int, eps float32) {
	defer t.time("LayerNormForward")()
	t.inner.LayerNormForward(x, gamma, beta, out, xhat, invStd, n, f, eps)
}

func (t *timedBackend) LayerNormBackward(xhat, invStd, dy, gamma, dx, dgamma, dbeta []float32, n, f int) {
	defer t.time("LayerNormBackward")()
	t.inner.LayerNormBackward(xhat, invStd, dy, gamma, dx, dgamma, dbeta, n, f)
}

func (t *timedBackend) BatchNorm2D(x, gamma, beta, out, xhat, variance []float32, b, c, plane int, eps float32) {
	defer t.time("BatchNorm2D")()
	t.inner.BatchNorm2D(x, gamma, beta, out, xhat, variance, b, c, plane, eps)
}

func (t *timedBackend) BatchNorm2DBackward(xhat, dy, variance, gamma, dx, dgamma, dbeta []float32, b, c, plane int, eps float32) {
	defer t.time("BatchNorm2DBackward")()
	t.inner.BatchNorm2DBackward(xhat, dy, variance, gamma, dx, dgamma, dbeta, b, c, plane, eps)
}

func (t *timedBackend) GLU4D(x, out, gate []float32, b, c, plane int) {
	defer t.time("GLU4D")()
	t.inner.GLU4D(x, out, gate, b, c, plane)
}

func (t *timedBackend) GLU4DBackward(x, gate, dy, dx []float32, b, c, plane int) {
	defer t.time("GLU4DBackward")()
	t.inner.GLU4DBackward(x, gate, dy, dx, b, c, plane)
}

func (t *timedBackend) LSTMCellForward(gates, cPrev, gi, gf, gg, go_, cNew, h []float32, b, hd int) {
	defer t.time("LSTMCellForward")()
	t.inner.LSTMCellForward(gates, cPrev, gi, gf, gg, go_, cNew, h, b, hd)
}

func (t *timedBackend) LSTMCellBackward(gi, gf, gg, go_, cPrev, cNew, dH, dC, dGates, dCPrev []float32, b, hd int) {
	defer t.time("LSTMCellBackward")()
	t.inner.LSTMCellBackward(gi, gf, gg, go_, cPrev, cNew, dH, dC, dGates, dCPrev, b, hd)
}

func (t *timedBackend) BCEWithLogits(logits, targets, out []float32) {
	defer t.time("BCEWithLogits")()
	t.inner.BCEWithLogits(logits, targets, out)
}

func (t *timedBackend) BCEWithLogitsBackward(logits, targets, dx []float32, g float32) {
	defer t.time("BCEWithLogitsBackward")()
	t.inner.BCEWithLogitsBackward(logits, targets, dx, g)
}

func (t *timedBackend) SGDStep(p, g, buf []float32, lr, momentum, weightDecay float32) {
	defer t.time("SGDStep")()
	t.inner.SGDStep(p, g, buf, lr, momentum, weightDecay)
}

func (t *timedBackend) AdamStep(p, g, m, v []float32, lr, beta1, beta2, eps float32, step int) {
	defer t.time("AdamStep")()
	t.inner.AdamStep(p, g, m, v, lr, beta1, beta2, eps, step)
}
