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

// useAVX2 selects the body of the three row micro-kernels below: the AVX2
// assembly of gemm_amd64.s over the leading multiple of eight columns where
// the CPU and the OS support it, the Go loop everywhere else. The choice is
// made once, here, and by nothing else; both bodies leave the same bits, so
// it is a matter of speed only.
var useAVX2 = cpuHasAVX2()

// DenseKernel names the micro-kernel body this process runs, for benchmark
// reports: a ledger row measured on "portable" is not comparable with one
// measured on "avx2".
func DenseKernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// axpy adds av*b to o: one k step of one output row.
func axpy(o, b []float32, av float32) {
	n := len(o)
	b = b[:n]
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		axpyAVX2(&o[0], &b[0], n8, av)
		if n8 == n {
			return
		}
		o, b = o[n8:], b[n8:]
	}
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
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		axpy1x4AVX2(&o[0], &b0[0], &b1[0], &b2[0], &b3[0], n8, a0, a1, a2, a3)
		if n8 == n {
			return
		}
		o, b0, b1, b2, b3 = o[n8:], b0[n8:], b1[n8:], b2[n8:], b3[n8:]
	}
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
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
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		axpy2x4AVX2(&o0[0], &o1[0], &b0[0], n8, n, a00, a01, a02, a03, a10, a11, a12, a13)
		if n8 == n {
			return
		}
		o0, o1, b0, b1, b2, b3 = o0[n8:], o1[n8:], b0[n8:], b1[n8:], b2[n8:], b3[n8:]
	}
	o1, b0, b1, b2, b3 = o1[:len(o0)], b0[:len(o0)], b1[:len(o0)], b2[:len(o0)], b3[:len(o0)]
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

// gemmTBRange computes output rows [lo,hi) of a @ bᵀ for a (·,k), given b
// (n,k) already transposed into the (k,n) panel bt: each output row
// is then a sum of k scaled panel rows, and the row micro-kernels apply them
// in ascending k, four per pass, two output rows sharing each panel load.
// With acc false the sums start from +0 and overwrite out (MatMulTB); with
// acc true they start from the values already in out and so continue those
// elements' accumulation chains (the filter gradient, summed across
// batches). There is no zero skip: a zero in a is multiplied through, so
// each output sees the add chain of a plain dot product over k.
func gemmTBRange(a, bt, out []float32, n, k int, acc bool, lo, hi int) {
	if !acc {
		clear(out[lo*n : hi*n])
	}
	i := lo
	for ; i+2 <= hi; i += 2 {
		o0 := out[i*n : (i+1)*n]
		o1 := out[(i+1)*n : (i+2)*n]
		a0, a1 := a[i*k:][:k], a[(i+1)*k:][:k]
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy2x4(o0, o1, bt[p*n:(p+4)*n],
				a0[p], a0[p+1], a0[p+2], a0[p+3], a1[p], a1[p+1], a1[p+2], a1[p+3])
		}
		for ; p < k; p++ {
			axpy(o0, bt[p*n:][:n], a0[p])
			axpy(o1, bt[p*n:][:n], a1[p])
		}
	}
	if i < hi {
		o := out[i*n : (i+1)*n]
		ar := a[i*k:][:k]
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy1x4(o, bt[p*n:][:n], bt[(p+1)*n:][:n], bt[(p+2)*n:][:n], bt[(p+3)*n:][:n],
				ar[p], ar[p+1], ar[p+2], ar[p+3])
		}
		for ; p < k; p++ {
			axpy(o, bt[p*n:][:n], ar[p])
		}
	}
}
