package backend

import (
	"math"
	"math/rand"
)

// The kernels are written as range helpers over half-open index intervals:
// cpuBackend runs one over the whole range below its cutoff and over
// disjoint tiles above it, which preserves the exact per-element
// accumulation order either way. The cpuBackend methods in this file are
// the ones that never tile.

// --- sparse ---

// spMMRange accumulates destination rows [lo,hi) of A @ x into out.
func spMMRange(rowPtr, colIdx []int32, vals []float32, x, out []float32, f, lo, hi int) {
	for dst := lo; dst < hi; dst++ {
		orow := out[dst*f : (dst+1)*f]
		row := colIdx[rowPtr[dst]:rowPtr[dst+1]]
		var w []float32
		if vals != nil {
			w = vals[rowPtr[dst]:rowPtr[dst+1]]
		}
		for k, src := range row {
			xrow := x[int(src)*f : int(src)*f+f]
			if w != nil {
				wv := w[k]
				for j := 0; j < f; j++ {
					orow[j] += wv * xrow[j]
				}
			} else {
				for j := 0; j < f; j++ {
					orow[j] += xrow[j]
				}
			}
		}
	}
}

// --- convolution ---

const negInf32 = float32(-3.4e38)

// maxPool2DRange pools (batch, channel) planes [lo,hi) — flat index b*c+ch.
func maxPool2DRange(x, out []float32, arg []int32, h, w, k, lo, hi int) {
	oh, ow := h/k, w/k
	for pi := lo; pi < hi; pi++ {
		plane := pi * h * w
		o := pi * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := negInf32
				bi := 0
				for ky := 0; ky < k; ky++ {
					rowBase := plane + (oy*k+ky)*w + ox*k
					for kx := 0; kx < k; kx++ {
						if v := x[rowBase+kx]; v > best {
							best = v
							bi = rowBase + kx
						}
					}
				}
				out[o] = best
				arg[o] = int32(bi)
				o++
			}
		}
	}
}

// ScatterAdd runs serially under every backend: idx may name colliding
// destinations, so the accumulation order is part of the contract.
func (cpuBackend) ScatterAdd(dst, src []float32, idx []int32) {
	for i, a := range idx {
		dst[a] += src[i]
	}
}

// --- gather / scatter rows ---

// gatherRowsRange copies selected rows [lo,hi) of idx into out.
func gatherRowsRange(x, out []float32, idx []int32, f, lo, hi int) {
	for i := lo; i < hi; i++ {
		v := int(idx[i])
		copy(out[i*f:(i+1)*f], x[v*f:(v+1)*f])
	}
}

// scatterAddRowsRange accumulates columns [loCol,hiCol) of every src row
// into dst: a column partition is race-free under colliding row indices and
// preserves the per-element accumulation order (i ascending).
func scatterAddRowsRange(dst, src []float32, idx []int32, f, loCol, hiCol int) {
	for i, v := range idx {
		drow := dst[int(v)*f : int(v)*f+f]
		srow := src[i*f : (i+1)*f]
		for j := loCol; j < hiCol; j++ {
			drow[j] += srow[j]
		}
	}
}

// --- reductions ---

// SumAll accumulates in float64 in index order; it stays serial under every
// backend so scalar losses are bitwise stable across backends.
func (cpuBackend) SumAll(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v)
	}
	return s
}

// sumRowsRange accumulates columns [loCol,hiCol) of the row reduction: for
// each output column, rows are added in ascending order as in the serial
// row-major loop.
func sumRowsRange(x, out []float32, n, f, loCol, hiCol int) {
	for j := loCol; j < hiCol; j++ {
		for i := 0; i < n; i++ {
			out[j] += x[i*f+j]
		}
	}
}

// sumColsRange writes row sums for rows [lo,hi).
func sumColsRange(x, out []float32, f, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float32
		for _, v := range x[i*f : (i+1)*f] {
			s += v
		}
		out[i] = s
	}
}

// maxColsRange writes row maxima and argmax for rows [lo,hi).
func maxColsRange(x, out []float32, arg []int32, f, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := x[i*f : (i+1)*f]
		best, bi := row[0], 0
		for j := 1; j < f; j++ {
			if row[j] > best {
				best, bi = row[j], j
			}
		}
		out[i] = best
		arg[i] = int32(bi)
	}
}

// softmaxRange writes the stabilized softmax of rows [lo,hi).
func softmaxRange(x, out []float32, f, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := x[i*f : (i+1)*f]
		orow := out[i*f : (i+1)*f]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			ev := math.Exp(float64(v - maxv))
			orow[j] = float32(ev)
			sum += ev
		}
		inv := float32(1 / sum)
		for j := range orow {
			orow[j] *= inv
		}
	}
}

// logSoftmaxRange writes the log-softmax of rows [lo,hi).
func logSoftmaxRange(x, out []float32, f, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := x[i*f : (i+1)*f]
		orow := out[i*f : (i+1)*f]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		lse := float32(math.Log(sum)) + maxv
		for j, v := range row {
			orow[j] = v - lse
		}
	}
}

// --- element-wise ---

func addRange(out, a, b []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = a[i] + b[i]
	}
}

func subRange(out, a, b []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = a[i] - b[i]
	}
}

func mulRange(out, a, b []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = a[i] * b[i]
	}
}

func scaleRange(out, a []float32, s float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = a[i] * s
	}
}

func addScalarRange(out, a []float32, s float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = a[i] + s
	}
}

func addScaledRange(out, a, b []float32, s float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = a[i] + s*b[i]
	}
}

func reluRange(out, x []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		if x[i] > 0 {
			out[i] = x[i]
		}
	}
}

func reluBackwardRange(out, x, dy []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		if x[i] > 0 {
			out[i] = dy[i]
		}
	}
}

func preluRange(out, x []float32, alpha float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		if x[i] > 0 {
			out[i] = x[i]
		} else {
			out[i] = alpha * x[i]
		}
	}
}

func sigmoidRange(out, x []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = sigmoid32(x[i])
	}
}

func tanhRange(out, x []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = tanh32(x[i])
	}
}

func expRange(out, x []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = float32(math.Exp(float64(x[i])))
	}
}

func sigmoid32(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }
func tanh32(x float32) float32    { return float32(math.Tanh(float64(x))) }

func (cpuBackend) Dropout(x, out, mask []float32, p float32, rng *rand.Rand) {
	keep := 1 / (1 - p)
	for i := range out {
		if rng.Float32() >= p {
			mask[i] = 1
			out[i] = x[i] * keep
		}
	}
}

// --- bias / layout ---

// addBiasRowsRange adds bias to rows [lo,hi).
func addBiasRowsRange(out, x, bias []float32, f, lo, hi int) {
	for i := lo; i < hi; i++ {
		for j := 0; j < f; j++ {
			out[i*f+j] = x[i*f+j] + bias[j]
		}
	}
}

// transpose2DRange transposes input rows [lo,hi) of x (n,f) into out (f,n):
// each writes a disjoint output column. Eight rows are read together so an
// output row is written eight neighbours at a time; the transposed-B
// products pack their operand through here.
func transpose2DRange(out, x []float32, n, f, lo, hi int) {
	i := lo
	for ; i+8 <= hi; i += 8 {
		r0, r1, r2, r3 := x[i*f:][:f], x[(i+1)*f:][:f], x[(i+2)*f:][:f], x[(i+3)*f:][:f]
		r4, r5, r6, r7 := x[(i+4)*f:][:f], x[(i+5)*f:][:f], x[(i+6)*f:][:f], x[(i+7)*f:][:f]
		for j := range r0 {
			d := out[j*n+i:][:8]
			d[0], d[1], d[2], d[3] = r0[j], r1[j], r2[j], r3[j]
			d[4], d[5], d[6], d[7] = r4[j], r5[j], r6[j], r7[j]
		}
	}
	for ; i < hi; i++ {
		for j, v := range x[i*f:][:f] {
			out[j*n+i] = v
		}
	}
}

func (cpuBackend) Permute4D(x, out []float32, in, perm [4]int) {
	outShape := [4]int{in[perm[0]], in[perm[1]], in[perm[2]], in[perm[3]]}
	is := [4]int{in[1] * in[2] * in[3], in[2] * in[3], in[3], 1}
	o := 0
	for a := 0; a < outShape[0]; a++ {
		for b := 0; b < outShape[1]; b++ {
			for c := 0; c < outShape[2]; c++ {
				base := a*is[perm[0]] + b*is[perm[1]] + c*is[perm[2]]
				sd := is[perm[3]]
				for d := 0; d < outShape[3]; d++ {
					out[o] = x[base+d*sd]
					o++
				}
			}
		}
	}
}

// addChannelBiasRange adds the channel bias to planes [lo,hi) — flat index
// b*c+ch.
func addChannelBiasRange(out, x, bias []float32, c, plane, lo, hi int) {
	for pi := lo; pi < hi; pi++ {
		base := pi * plane
		bv := bias[pi%c]
		for i := 0; i < plane; i++ {
			out[base+i] = x[base+i] + bv
		}
	}
}

// channelBiasGradRange reduces dy over batch and plane for channels
// [lo,hi), accumulating per channel in ascending-batch order.
func channelBiasGradRange(dy, out []float32, n, c, plane, lo, hi int) {
	for ch := lo; ch < hi; ch++ {
		for b := 0; b < n; b++ {
			base := (b*c + ch) * plane
			var s float32
			for i := 0; i < plane; i++ {
				s += dy[base+i]
			}
			out[ch] += s
		}
	}
}

// --- norms ---

// batchNormStatsRange accumulates mean and variance for columns [lo,hi),
// adding rows in ascending order per column as the serial loop does.
func batchNormStatsRange(x, mean, variance []float32, n, f, loCol, hiCol int) {
	inv := float32(1)
	if n > 0 {
		inv = 1 / float32(n)
	}
	for j := loCol; j < hiCol; j++ {
		for i := 0; i < n; i++ {
			mean[j] += x[i*f+j]
		}
		mean[j] *= inv
		for i := 0; i < n; i++ {
			d := x[i*f+j] - mean[j]
			variance[j] += d * d
		}
		variance[j] *= inv
	}
}

// batchNormApplyRange normalizes rows [lo,hi) given precomputed inverse
// standard deviations.
func batchNormApplyRange(x, mean, inv, gamma, beta, out []float32, f, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := x[i*f : (i+1)*f]
		orow := out[i*f : (i+1)*f]
		for j := 0; j < f; j++ {
			orow[j] = gamma[j]*(row[j]-mean[j])*inv[j] + beta[j]
		}
	}
}

// batchNormInvStd precomputes the per-column 1/sqrt(var+eps) factors.
func batchNormInvStd(variance []float32, eps float32) []float32 {
	inv := make([]float32, len(variance))
	for j, v := range variance {
		inv[j] = float32(1 / math.Sqrt(float64(v+eps)))
	}
	return inv
}

// batchNormBackwardRange computes gradients for columns [lo,hi): per-column
// row sums (in ascending order), then the dx column.
func batchNormBackwardRange(xhat, dy, variance, gamma, dx, dgamma, dbeta []float32, n, f int, eps float32, loCol, hiCol int) {
	invN := 1 / float64(n)
	for j := loCol; j < hiCol; j++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			sumDy += float64(dy[i*f+j])
			sumDyXhat += float64(dy[i*f+j] * xhat[i*f+j])
		}
		dgamma[j] = float32(sumDyXhat)
		dbeta[j] = float32(sumDy)
		invStd := 1 / math.Sqrt(float64(variance[j]+eps))
		for i := 0; i < n; i++ {
			dx[i*f+j] = float32(float64(gamma[j]) * invStd *
				(float64(dy[i*f+j]) - invN*sumDy - float64(xhat[i*f+j])*invN*sumDyXhat))
		}
	}
}

// layerNormForwardRange normalizes rows [lo,hi).
func layerNormForwardRange(x, gamma, beta, out, xhat, invStd []float32, f int, eps float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := x[i*f : (i+1)*f]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(f)
		var variance float64
		for _, v := range row {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(f)
		is := 1 / math.Sqrt(variance+float64(eps))
		invStd[i] = float32(is)
		xr := xhat[i*f : (i+1)*f]
		or := out[i*f : (i+1)*f]
		for j, v := range row {
			xh := float32((float64(v) - mean) * is)
			xr[j] = xh
			or[j] = gamma[j]*xh + beta[j]
		}
	}
}

// layerNormDXRange computes the dx rows [lo,hi); per-row sums are local.
func layerNormDXRange(xhat, invStd, dy, gamma, dx []float32, f, lo, hi int) {
	invF := 1 / float64(f)
	for i := lo; i < hi; i++ {
		dr := dy[i*f : (i+1)*f]
		xr := xhat[i*f : (i+1)*f]
		dxr := dx[i*f : (i+1)*f]
		var sumDyG, sumDyGXhat float64
		for j := 0; j < f; j++ {
			dyg := float64(dr[j]) * float64(gamma[j])
			sumDyG += dyg
			sumDyGXhat += dyg * float64(xr[j])
		}
		is := float64(invStd[i])
		for j := 0; j < f; j++ {
			dyg := float64(dr[j]) * float64(gamma[j])
			dxr[j] = float32(is * (dyg - invF*sumDyG - float64(xr[j])*invF*sumDyGXhat))
		}
	}
}

// layerNormDParamsRange accumulates dgamma/dbeta for columns [loCol,hiCol),
// adding rows in ascending order.
func layerNormDParamsRange(xhat, dy, dgamma, dbeta []float32, n, f, loCol, hiCol int) {
	for j := loCol; j < hiCol; j++ {
		for i := 0; i < n; i++ {
			dgamma[j] += dy[i*f+j] * xhat[i*f+j]
			dbeta[j] += dy[i*f+j]
		}
	}
}

// batchNorm2DRange normalizes channels [lo,hi) of x (b,c,plane).
func batchNorm2DRange(x, gamma, beta, out, xhat, variance []float32, b, c, plane int, eps float32, lo, hi int) {
	count := float64(b * plane)
	for ch := lo; ch < hi; ch++ {
		var sum float64
		for bi := 0; bi < b; bi++ {
			base := (bi*c + ch) * plane
			for i := 0; i < plane; i++ {
				sum += float64(x[base+i])
			}
		}
		mean := sum / count
		var vs float64
		for bi := 0; bi < b; bi++ {
			base := (bi*c + ch) * plane
			for i := 0; i < plane; i++ {
				d := float64(x[base+i]) - mean
				vs += d * d
			}
		}
		v := vs / count
		variance[ch] = float32(v)
		invStd := 1 / math.Sqrt(v+float64(eps))
		for bi := 0; bi < b; bi++ {
			base := (bi*c + ch) * plane
			for i := 0; i < plane; i++ {
				h := float32((float64(x[base+i]) - mean) * invStd)
				xhat[base+i] = h
				out[base+i] = gamma[ch]*h + beta[ch]
			}
		}
	}
}

// batchNorm2DBackwardRange computes gradients for channels [lo,hi).
func batchNorm2DBackwardRange(xhat, dy, variance, gamma, dx, dgamma, dbeta []float32, b, c, plane int, eps float32, lo, hi int) {
	count := float64(b * plane)
	for ch := lo; ch < hi; ch++ {
		var sumDy, sumDyXhat float64
		for bi := 0; bi < b; bi++ {
			base := (bi*c + ch) * plane
			for i := 0; i < plane; i++ {
				sumDy += float64(dy[base+i])
				sumDyXhat += float64(dy[base+i] * xhat[base+i])
			}
		}
		dgamma[ch] = float32(sumDyXhat)
		dbeta[ch] = float32(sumDy)
		invStd := 1 / math.Sqrt(float64(variance[ch]+eps))
		for bi := 0; bi < b; bi++ {
			base := (bi*c + ch) * plane
			for i := 0; i < plane; i++ {
				dx[base+i] = float32(float64(gamma[ch]) * invStd *
					(float64(dy[base+i]) - sumDy/count - float64(xhat[base+i])*sumDyXhat/count))
			}
		}
	}
}

// --- fused cells ---

// glu4DRange gates (batch, channel) planes [lo,hi) — flat index bi*c+ch.
func glu4DRange(x, out, gate []float32, c, plane, lo, hi int) {
	c2 := 2 * c
	for pi := lo; pi < hi; pi++ {
		bi, ch := pi/c, pi%c
		aBase := (bi*c2 + ch) * plane
		gBase := (bi*c2 + c + ch) * plane
		oBase := (bi*c + ch) * plane
		for i := 0; i < plane; i++ {
			g := sigmoid32(x[gBase+i])
			gate[oBase+i] = g
			out[oBase+i] = x[aBase+i] * g
		}
	}
}

// glu4DBackwardRange back-propagates planes [lo,hi).
func glu4DBackwardRange(x, gate, dy, dx []float32, c, plane, lo, hi int) {
	c2 := 2 * c
	for pi := lo; pi < hi; pi++ {
		bi, ch := pi/c, pi%c
		aBase := (bi*c2 + ch) * plane
		gBase := (bi*c2 + c + ch) * plane
		oBase := (bi*c + ch) * plane
		for i := 0; i < plane; i++ {
			g := gate[oBase+i]
			dx[aBase+i] = dy[oBase+i] * g
			dx[gBase+i] = dy[oBase+i] * x[aBase+i] * g * (1 - g)
		}
	}
}

// lstmCellForwardRange applies the pointwise cell to rows [lo,hi).
func lstmCellForwardRange(gates, cPrev, gi, gf, gg, go_, cNew, h []float32, hd, lo, hi int) {
	for r := lo; r < hi; r++ {
		gr := gates[r*4*hd : (r+1)*4*hd]
		cp := cPrev[r*hd : (r+1)*hd]
		ir, fr := gi[r*hd:(r+1)*hd], gf[r*hd:(r+1)*hd]
		gr2, or := gg[r*hd:(r+1)*hd], go_[r*hd:(r+1)*hd]
		cn, hr := cNew[r*hd:(r+1)*hd], h[r*hd:(r+1)*hd]
		for j := 0; j < hd; j++ {
			ir[j] = sigmoid32(gr[j])
			fr[j] = sigmoid32(gr[hd+j])
			gr2[j] = tanh32(gr[2*hd+j])
			or[j] = sigmoid32(gr[3*hd+j])
			cn[j] = fr[j]*cp[j] + ir[j]*gr2[j]
			hr[j] = or[j] * tanh32(cn[j])
		}
	}
}

// lstmCellBackwardRange back-propagates rows [lo,hi); dH/dC may be nil.
func lstmCellBackwardRange(gi, gf, gg, go_, cPrev, cNew, dH, dC, dGates, dCPrev []float32, hd, lo, hi int) {
	for r := lo; r < hi; r++ {
		ir, fr := gi[r*hd:(r+1)*hd], gf[r*hd:(r+1)*hd]
		gr, or := gg[r*hd:(r+1)*hd], go_[r*hd:(r+1)*hd]
		cp, cn := cPrev[r*hd:(r+1)*hd], cNew[r*hd:(r+1)*hd]
		dg := dGates[r*4*hd : (r+1)*4*hd]
		dcp := dCPrev[r*hd : (r+1)*hd]
		for j := 0; j < hd; j++ {
			var dh, dc float32
			if dH != nil {
				dh = dH[r*hd+j]
			}
			if dC != nil {
				dc = dC[r*hd+j]
			}
			tc := tanh32(cn[j])
			dcTot := dc + dh*or[j]*(1-tc*tc)
			dO := dh * tc
			dF := dcTot * cp[j]
			dI := dcTot * gr[j]
			dG := dcTot * ir[j]
			dg[j] = dI * ir[j] * (1 - ir[j])
			dg[hd+j] = dF * fr[j] * (1 - fr[j])
			dg[2*hd+j] = dG * (1 - gr[j]*gr[j])
			dg[3*hd+j] = dO * or[j] * (1 - or[j])
			dcp[j] = dcTot * fr[j]
		}
	}
}

// --- losses ---

// The exact BCE expressions cost a math.Exp (and, forward, a math.Log1p)
// per element, yet ARGA's decoder logits sit almost all within a quarter of
// zero, where short series give the same float64 values to well within the
// float32 rounding of the result. Each kernel evaluates its series there and
// keeps the result only when a rounding test proves it equal, bit for bit,
// to what the exact expression (the fallback, and the whole kernel outside
// the band) returns:
//
//   - The exact expression's float64 value R is within a few float64 ulp of
//     the true value: math.Exp and math.Log1p err by about one ulp
//     (~1e-16), and the rest is a few rounded adds. The series value r'
//     is within 2^-50 of the true value, roundings included. So |R - r'|
//     is below 2^-48 times the operands' scale, and the slack d, bceSlack
//     times that scale, is 64x wider: R lies in [r'-d, r'+d].
//   - Rounding to float32 is monotone, so float32(r'-d) <= float32(R) <=
//     float32(r'+d). When both ends round to the same float32, that float32
//     is float32(R), whatever R's last float64 bits are.
//   - Otherwise R may sit too close to a float32 rounding boundary to tell,
//     and the kernel evaluates the exact expression.
//
// The band and the slack are constants: moving either changes speed, never
// bits. TestBCESeriesBound holds both series, and the exact expressions,
// to 2^-50 of a 160-bit reference over the band; TestBCEFastPathBits sweeps
// float32 logits across it against the exact expressions.
const (
	bceBand  = 0.25    // |x| at or below which the series are tried
	bceSlack = 0x1p-42 // half-width of the rounding test per unit of scale
)

// log1pExpSeries returns ln(1+e^-|x|) for |x| <= bceBand. With z = |x|/2,
// ln(1+e^-|x|) = ln2 - z + ln cosh z, and ln cosh z is the even series
// sum 2^2n (2^2n - 1) B_2n z^2n / (2n (2n)!) over Bernoulli numbers B_2n;
// its first omitted term is below 2^-53 for z <= 1/8.
func log1pExpSeries(x float64) float64 {
	w := x * x / 4 // z², exact
	lc := w * (1.0/2 + w*(-1.0/12+w*(1.0/45+w*(-17.0/2520+w*(31.0/14175+w*(-691.0/935550))))))
	return math.Ln2 + (lc - math.Abs(x)/2)
}

// sigmoidSeries returns 1/(1+e^-x) for |x| <= bceBand. With u = x/2,
// 1/(1+e^-x) = 1/2 + tanh(u)/2, and tanh u is the odd series
// sum 2^2n (2^2n - 1) B_2n u^(2n-1) / (2n)!; with the halving folded into
// the coefficients, its first omitted term is below 2^-55 for u <= 1/8.
func sigmoidSeries(x float64) float64 {
	v := x * x / 4 // u², exact
	return 0.5 + x*(1.0/4+v*(-1.0/12+v*(1.0/30+v*(-17.0/1260+v*(31.0/5670+v*(-691.0/311850+v*(5461.0/6081075)))))))
}

// pinned returns float32(v-d) and whether float32(v+d) has the same bits,
// that is, whether every value within d of v rounds to the same float32.
func pinned(v, d float64) (float32, bool) {
	lo, hi := float32(v-d), float32(v+d)
	return lo, math.Float32bits(lo) == math.Float32bits(hi)
}

// bceWithLogitsRange writes the stabilized BCE for elements [lo,hi). The
// rounding argument is about finite values, so a non-finite target takes
// the exact expression too: with a NaN one, both ends of the rounding test
// would be NaN and pass it on the hardware's NaN propagation alone.
func bceWithLogitsRange(logits, targets, out []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		x, y := float64(logits[i]), float64(targets[i])
		if math.Abs(x) <= bceBand && math.Abs(y) <= math.MaxFloat32 {
			m := max(x, 0)
			r := log1pExpSeries(x) + m - x*y
			if v, ok := pinned(r, bceSlack*(1+m+math.Abs(x*y))); ok {
				out[i] = v
				continue
			}
		}
		out[i] = float32(math.Log1p(math.Exp(-math.Abs(x))) + math.Max(x, 0) - x*y)
	}
}

// bceWithLogitsBackwardRange writes (sigmoid(x)-y)*g for elements [lo,hi).
func bceWithLogitsBackwardRange(logits, targets, dx []float32, g float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		if x := float64(logits[i]); math.Abs(x) <= bceBand {
			if sig, ok := pinned(sigmoidSeries(x), bceSlack); ok {
				dx[i] = (sig - targets[i]) * g
				continue
			}
		}
		dx[i] = (sigmoid32(logits[i]) - targets[i]) * g
	}
}

// --- optimizer steps ---

// sgdStepRange updates parameters [lo,hi) in place.
func sgdStepRange(p, g, buf []float32, lr, momentum, weightDecay float32, lo, hi int) {
	if buf != nil {
		for i := lo; i < hi; i++ {
			upd := g[i] + weightDecay*p[i]
			buf[i] = momentum*buf[i] + upd
			p[i] -= lr * buf[i]
		}
	} else {
		for i := lo; i < hi; i++ {
			p[i] -= lr * (g[i] + weightDecay*p[i])
		}
	}
}

// adamStepRange updates parameters [lo,hi) in place given precomputed bias
// corrections.
func adamStepRange(p, g, m, v []float32, lr, beta1, beta2, eps, bc1, bc2 float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		m[i] = beta1*m[i] + (1-beta1)*g[i]
		v[i] = beta2*v[i] + (1-beta2)*g[i]*g[i]
		mhat := m[i] / bc1
		vhat := v[i] / bc2
		p[i] -= lr * mhat / (float32(math.Sqrt(float64(vhat))) + eps)
	}
}

// adamBias returns the step's bias-correction factors.
func adamBias(beta1, beta2 float32, step int) (bc1, bc2 float32) {
	bc1 = 1 - float32(math.Pow(float64(beta1), float64(step)))
	bc2 = 1 - float32(math.Pow(float64(beta2), float64(step)))
	return bc1, bc2
}
