//go:build !amd64

package backend

// Without an assembly body the row micro-kernels of gemm.go are their Go
// loops: useAVX2 stays false and the vector entry points are never reached.

func cpuHasAVX2() bool { return false }

func axpyAVX2(o, b *float32, n int, av float32) { panic("backend: no vector kernel") }

func axpy1x4AVX2(o, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32) {
	panic("backend: no vector kernel")
}

func axpy2x4AVX2(o0, o1, bp *float32, n, stride int, a00, a01, a02, a03, a10, a11, a12, a13 float32) {
	panic("backend: no vector kernel")
}
