package backend

// Declarations of gemm_amd64.s.

func cpuHasAVX2() bool

//go:noescape
func axpyAVX2(o, b *float32, n int, av float32)

//go:noescape
func axpy1x4AVX2(o, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)

//go:noescape
func axpy2x4AVX2(o0, o1, bp *float32, n, stride int, a00, a01, a02, a03, a10, a11, a12, a13 float32)
