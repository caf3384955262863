package backend

import "sync"

// The three convolution kernels are index shuffles around the dense kernels
// of gemm.go. Per image, unfold lays the receptive fields out as a patch
// matrix whose rows follow the reduction order of the direct loop nest, so
// the product adds each output's terms in the nest's order and the results
// are the nest's bits:
//
//	forward      out_b (Cout, OH*OW) = w (Cout, Cin*KH*KW) @ patches(x_b)
//	grad-weight  dw (Cout, Cin*KH*KW) += dy_b (Cout, OH*OW) @ patches(x_b)ᵀ
//	grad-input   dx_b (Cin, H*W) += flip(w) (Cin, Cout*KH*KW) @ patches(dy_b)
//
// Grad-input is the forward correlation of dy — its samples spread Stride
// apart, zero-padded by K-1-Pad — with the filter flipped in both spatial
// axes and transposed in its channel axes. Ascending flipped taps are
// descending ky, kx, which is ascending oy, ox: the order the nest visits
// the outputs that touch one input element.
//
// Padding and dilation gaps are stored as zeros and multiplied through, and
// the dense kernels skip zero filter values rather than zero gradients, so
// where the nests skipped a term these kernels may add a ±0 product (or the
// reverse). That moves no bit while operands are finite and no accumulator
// holds -0; backend_test.go pins the exceptions.

// patchGeom describes one unfold: a (C,IH,IW) image whose samples sit
// DH, DW apart on the grid a KH x KW window crosses in steps of SH, SW,
// starting PH, PW before the image, to yield OH x OW patches.
type patchGeom struct {
	C, IH, IW int
	KH, KW    int
	OH, OW    int
	SH, SW    int
	DH, DW    int
	PH, PW    int
}

// inputPatches is the unfold the forward and filter-gradient kernels share.
func (p ConvParams) inputPatches() patchGeom {
	return patchGeom{
		C: p.Cin, IH: p.H, IW: p.W, KH: p.KH, KW: p.KW, OH: p.OH, OW: p.OW,
		SH: p.StrideH, SW: p.StrideW, DH: 1, DW: 1, PH: p.PadH, PW: p.PadW,
	}
}

// gradPatches is the unfold of dy for the input gradient.
func (p ConvParams) gradPatches() patchGeom {
	return patchGeom{
		C: p.Cout, IH: p.OH, IW: p.OW, KH: p.KH, KW: p.KW, OH: p.H, OW: p.W,
		SH: 1, SW: 1, DH: p.StrideH, DW: p.StrideW,
		PH: p.KH - 1 - p.PadH, PW: p.KW - 1 - p.PadW,
	}
}

// unfold writes the patch matrix of one image into col (C*KH*KW, OH*OW):
// row (c,ky,kx), column (oy,ox) holds the sample under tap (ky,kx) of patch
// (oy,ox), or zero where the tap falls off the image or between samples.
// Every element of col is written, so col may be recycled scratch.
func unfold(src, col []float32, g patchGeom) {
	pos := g.OH * g.OW
	r := 0
	for c := 0; c < g.C; c++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				row := col[r*pos : (r+1)*pos]
				r++
				for oy := 0; oy < g.OH; oy++ {
					dst := row[oy*g.OW : (oy+1)*g.OW]
					ny := oy*g.SH + ky - g.PH
					if ny < 0 || ny%g.DH != 0 || ny/g.DH >= g.IH {
						clear(dst)
						continue
					}
					line := src[(c*g.IH+ny/g.DH)*g.IW:][:g.IW]
					if g.SW == 1 && g.DW == 1 {
						// Unit step: the in-image taps of this row are one
						// contiguous run of the source line.
						x0 := min(max(g.PW-kx, 0), g.OW)
						x1 := max(min(g.IW+g.PW-kx, g.OW), x0)
						clear(dst[:x0])
						if x1 > x0 {
							copy(dst[x0:x1], line[x0+kx-g.PW:])
						}
						clear(dst[x1:])
						continue
					}
					for ox := range dst {
						nx := ox*g.SW + kx - g.PW
						if nx < 0 || nx%g.DW != 0 || nx/g.DW >= g.IW {
							dst[ox] = 0
						} else {
							dst[ox] = line[nx/g.DW]
						}
					}
				}
			}
		}
	}
}

// flipFilter writes w (Cout,Cin,KH,KW) into wf as (Cin, Cout*KH*KW) with
// both spatial axes reversed: the left operand of the input gradient.
func flipFilter(w, wf []float32, p ConvParams) {
	taps := p.KH * p.KW
	for ic := 0; ic < p.Cin; ic++ {
		for oc := 0; oc < p.Cout; oc++ {
			src := w[(oc*p.Cin+ic)*taps:][:taps]
			dst := wf[(ic*p.Cout+oc)*taps:][:taps]
			for t := range dst {
				dst[t] = src[taps-1-t]
			}
		}
	}
}

// scratch is the free list of patch buffers. It is a plain list rather than
// a sync.Pool because a pool is emptied by the garbage collector, which in a
// training loop runs several times between two convolutions, so every call
// would allocate its half megabyte again. A buffer belongs to one range
// helper from getScratch to putScratch, so concurrent tiles and concurrent
// callers never share one, and the list never holds more buffers than were
// once in use at the same time.
var scratch struct {
	sync.Mutex
	free [][]float32
}

// getScratch returns a buffer of n floats with arbitrary contents. When no
// free buffer is large enough it allocates one and discards a smaller one
// in exchange, so the list converges on the largest sizes in use.
func getScratch(n int) []float32 {
	scratch.Lock()
	last := len(scratch.free) - 1
	for i := last; i >= 0; i-- {
		if s := scratch.free[i]; cap(s) >= n {
			scratch.free[i] = scratch.free[last]
			scratch.free[last] = nil
			scratch.free = scratch.free[:last]
			scratch.Unlock()
			return s[:n]
		}
	}
	if last >= 0 {
		scratch.free[last] = nil
		scratch.free = scratch.free[:last]
	}
	scratch.Unlock()
	return make([]float32, n) // allocated (and zeroed) outside the lock
}

func putScratch(s []float32) {
	scratch.Lock()
	scratch.free = append(scratch.free, s)
	scratch.Unlock()
}

// conv2DRange computes output (batch, out-channel) pairs [lo,hi) — flat
// index b*Cout+oc — of the forward convolution, overwriting out.
func conv2DRange(x, w, out []float32, p ConvParams, lo, hi int) {
	if lo >= hi {
		return
	}
	g := p.inputPatches()
	kk, pos := p.Cin*p.KH*p.KW, p.OH*p.OW
	col := getScratch(kk * pos)
	defer putScratch(col)
	img := p.Cin * p.H * p.W
	for b := lo / p.Cout; b*p.Cout < hi; b++ {
		ocLo, ocHi := max(lo-b*p.Cout, 0), min(hi-b*p.Cout, p.Cout)
		unfold(x[b*img:(b+1)*img], col, g)
		ob := out[b*p.Cout*pos : (b+1)*p.Cout*pos]
		clear(ob[ocLo*pos : ocHi*pos])
		gemmRange(w, col, ob, pos, kk, kk, 1, ocLo, ocHi)
	}
}

// conv2DGradInputRange accumulates dx for (batch, in-channel) pairs [lo,hi)
// — flat index b*Cin+ic.
func conv2DGradInputRange(dy, w, dx []float32, p ConvParams, lo, hi int) {
	if lo >= hi {
		return
	}
	g := p.gradPatches()
	kk, pos := p.Cout*p.KH*p.KW, p.H*p.W
	buf := getScratch(p.Cin*kk + kk*pos)
	defer putScratch(buf)
	wf, col := buf[:p.Cin*kk], buf[p.Cin*kk:]
	flipFilter(w, wf, p)
	img := p.Cout * p.OH * p.OW
	for b := lo / p.Cin; b*p.Cin < hi; b++ {
		icLo, icHi := max(lo-b*p.Cin, 0), min(hi-b*p.Cin, p.Cin)
		unfold(dy[b*img:(b+1)*img], col, g)
		gemmRange(wf, col, dx[b*p.Cin*pos:(b+1)*p.Cin*pos], pos, kk, kk, 1, icLo, icHi)
	}
}

// conv2DGradWeightRange accumulates dw for output channels [lo,hi): each
// channel owns a disjoint filter slab, and batch b's dot products continue
// from the sums batches 0..b-1 left in dw. Every tile unfolds every image
// for itself and transposes the patches into the panel gemmTBRange reads:
// the two together cost what a few output channels' dot products do, so
// sharing them across tiles would save little and need a barrier.
func conv2DGradWeightRange(x, dy, dw []float32, p ConvParams, lo, hi int) {
	if lo >= hi {
		return
	}
	g := p.inputPatches()
	kk, pos := p.Cin*p.KH*p.KW, p.OH*p.OW
	buf := getScratch(2 * kk * pos)
	defer putScratch(buf)
	col, colT := buf[:kk*pos], buf[kk*pos:]
	img := p.Cin * p.H * p.W
	for b := 0; b < p.N; b++ {
		unfold(x[b*img:(b+1)*img], col, g)
		transpose2DRange(colT, col, kk, pos, 0, kk)
		gemmTBRange(dy[b*p.Cout*pos:(b+1)*p.Cout*pos], colT, dw, kk, pos, true, lo, hi)
	}
}
