package backend

import "math"

// The dense kernel family. Every product in the suite — the three GEMM
// variants and, through im2col (conv.go), the three convolutions — runs on
// the two range helpers below. Both obey one rule: tile across independent
// outputs, never across the reduction. An output element's k contributions
// are added one at a time in ascending k, each add rounded to float32, so a
// tile of any shape produces the bits of the plain triple loop; register
// blocking only lets neighbouring outputs share operand loads and loop
// overhead.

// gemmRange accumulates output rows [lo,hi) of A @ b into out (·,n) for b
// stored (k,n). A is read through strides, A[i,p] = a[i*sai+p*sap]: (k,1)
// reads the row-major (m,k) operand of MatMul, (1,m) the (k,m) storage of
// MatMulTA.
//
// Zero entries of A contribute nothing and are skipped, which the suite's
// inputs need (cora's features are 95 % zeros, post-ReLU activations about
// half). Two rows advance together, four k steps per pass over their output
// rows, for as long as all eight A values are non-zero; from the first zero
// on, each row finishes alone through gemmRowSkip.
func gemmRange(a, b, out []float32, n, k, sai, sap, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		o0 := out[i*n : (i+1)*n]
		o1 := out[(i+1)*n : (i+2)*n]
		r0, r1 := i*sai, (i+1)*sai
		p := 0
		for ; p+4 <= k; p += 4 {
			q0, q1 := r0+p*sap, r1+p*sap
			a00, a01, a02, a03 := a[q0], a[q0+sap], a[q0+2*sap], a[q0+3*sap]
			a10, a11, a12, a13 := a[q1], a[q1+sap], a[q1+2*sap], a[q1+3*sap]
			if a00 == 0 || a01 == 0 || a02 == 0 || a03 == 0 ||
				a10 == 0 || a11 == 0 || a12 == 0 || a13 == 0 {
				break
			}
			axpy2x4(o0, o1, b[p*n:(p+4)*n], a00, a01, a02, a03, a10, a11, a12, a13)
		}
		if p < k {
			gemmRowSkip(a, r0, sap, b, o0, p, k)
			gemmRowSkip(a, r1, sap, b, o1, p, k)
		}
	}
	if i < hi {
		gemmRowSkip(a, i*sai, sap, b, out[i*n:(i+1)*n], 0, k)
	}
}

// skipChunk is how many k steps gemmRowSkip scans before it applies the
// non-zero ones it found.
const skipChunk = 32

// gemmRowSkip applies k steps [p,k) of the row whose A values start at a[r]
// to its output row o. It gathers the steps with a non-zero A value, in
// order, and applies them four per pass over o; the scan is branch-free, so
// a half-zero row costs no mispredictions, and up to three steps a chunk
// leaves over are carried into the next so only the row's last few run one
// at a time.
func gemmRowSkip(a []float32, r, sap int, b, o []float32, p, k int) {
	n := len(o)
	// The buffers hold a chunk plus the carry; their power-of-two length
	// lets the scan index them through a mask instead of a bounds check.
	var (
		step [2 * skipChunk]int32
		val  [2 * skipChunk]float32
	)
	cnt := 0
	q := r + p*sap
	for p < k {
		for end := min(p+skipChunk, k); p < end; p++ {
			av := a[q]
			q += sap
			step[cnt&(2*skipChunk-1)], val[cnt&(2*skipChunk-1)] = int32(p), av
			// cnt advances iff av != 0: every bit but the sign is tested.
			u := math.Float32bits(av) << 1
			cnt += int((u | -u) >> 31)
		}
		g := 0
		for ; g+4 <= cnt; g += 4 {
			axpy1x4(o,
				b[int(step[g])*n:][:n], b[int(step[g+1])*n:][:n],
				b[int(step[g+2])*n:][:n], b[int(step[g+3])*n:][:n],
				val[g], val[g+1], val[g+2], val[g+3])
		}
		cnt = copy(step[:], step[g:cnt])
		copy(val[:], val[g:g+cnt])
	}
	for g := 0; g < cnt; g++ {
		axpy(o, b[int(step[g])*n:][:n], val[g])
	}
}

// axpy adds av*b to o: one k step of one output row.
func axpy(o, b []float32, av float32) {
	b = b[:len(o)]
	for j := range o {
		o[j] += av * b[j]
	}
}

// axpy1x4 applies four k steps to one output row in a single pass: each
// element is loaded once, takes its four adds in k order, and is stored
// once.
func axpy1x4(o, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	n := len(o)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for j := range o {
		s := o[j]
		s += a0 * b0[j]
		s += a1 * b1[j]
		s += a2 * b2[j]
		s += a3 * b3[j]
		o[j] = s
	}
}

// axpy2x4 is axpy1x4 over two output rows and four consecutive b rows (bp),
// each b element loaded once for both.
func axpy2x4(o0, o1, bp []float32, a00, a01, a02, a03, a10, a11, a12, a13 float32) {
	n := len(o0)
	o1 = o1[:n]
	b0, b1, b2, b3 := bp[:n], bp[n:][:n], bp[2*n:][:n], bp[3*n:][:n]
	for j := range o0 {
		v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
		s := o0[j]
		s += a00 * v0
		s += a01 * v1
		s += a02 * v2
		s += a03 * v3
		o0[j] = s
		t := o1[j]
		t += a10 * v0
		t += a11 * v1
		t += a12 * v2
		t += a13 * v3
		o1[j] = t
	}
}

// gemmTBRange computes output rows [lo,hi) of a @ bᵀ for a (·,k) and b
// stored (n,k): each output is one dot product over k. With acc false the
// sum starts from zero and overwrites out (MatMulTB); with acc true it
// starts from the value already in out and so continues that element's
// accumulation chain (the filter gradient, summed across batches). Four
// output columns share each load of the a row; there is no zero skip.
func gemmTBRange(a, b, out []float32, n, k int, acc bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k:][:k]
		orow := out[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0, b1 := b[j*k:][:k], b[(j+1)*k:][:k]
			b2, b3 := b[(j+2)*k:][:k], b[(j+3)*k:][:k]
			var s0, s1, s2, s3 float32
			if acc {
				s0, s1, s2, s3 = orow[j], orow[j+1], orow[j+2], orow[j+3]
			}
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b[j*k:][:k]
			var s float32
			if acc {
				s = orow[j]
			}
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
}
