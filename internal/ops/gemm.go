package ops

import (
	"fmt"

	"gnnmark/internal/gpu"
	"gnnmark/internal/tensor"
)

// gemmTile is the shared-memory tile edge assumed by the GEMM kernel
// recipe; it sets the modeled global-memory reuse factor.
const gemmTile = 32

// MatMul returns a @ b for a (M,K) and b (K,N).
func (e *Engine) MatMul(a, b *tensor.Tensor) *tensor.Tensor {
	return e.matmul(a, b, false, false)
}

// MatMulTA returns aᵀ @ b for a (K,M) and b (K,N); the dW term of a linear
// layer's backward pass.
func (e *Engine) MatMulTA(a, b *tensor.Tensor) *tensor.Tensor {
	return e.matmul(a, b, true, false)
}

// MatMulTB returns a @ bᵀ for a (M,K) and b (N,K); the dX term of a linear
// layer's backward pass and the inner-product decoder of ARGA.
func (e *Engine) MatMulTB(a, b *tensor.Tensor) *tensor.Tensor {
	return e.matmul(a, b, false, true)
}

func (e *Engine) matmul(a, b *tensor.Tensor, transA, transB bool) *tensor.Tensor {
	ar, ac := check2D("MatMul", a)
	br, bc := check2D("MatMul", b)
	m, k := ar, ac
	if transA {
		m, k = ac, ar
	}
	kb, n := br, bc
	if transB {
		kb, n = bc, br
	}
	if k != kb {
		shapePanic("MatMul", a, b)
	}

	out := e.arena.New(m, n)
	switch {
	case !transA && !transB:
		e.be.MatMul(a.Data(), b.Data(), out.Data(), m, n, k)
	case transA && !transB:
		e.be.MatMulTA(a.Data(), b.Data(), out.Data(), m, n, k)
	case !transA && transB:
		e.be.MatMulTB(a.Data(), b.Data(), out.Data(), m, n, k)
	default:
		panic("ops: MatMul with both operands transposed is not used")
	}

	e.launchGEMM(m, n, k, a, b, out)
	return out
}

// launchGEMM emits the GEMM kernel recipe, named sgemm_MxKxN, for an
// (m,n,k) product reading tensors a and b and writing out.
func (e *Engine) launchGEMM(m, n, k int, a, b, out *tensor.Tensor) {
	if e.dev == nil {
		return
	}
	name, ok := e.gemmNames[[3]int{m, k, n}]
	if !ok {
		name = fmt.Sprintf("sgemm_%dx%dx%d", m, k, n)
		e.gemmNames[[3]int{m, k, n}] = name
	}
	mnk := uint64(m) * uint64(n) * uint64(k)
	elem := e.fpElem()
	repA := (n + gemmTile - 1) / gemmTile
	repB := (m + gemmTile - 1) / gemmTile
	// Tall-skinny products (reduction-shaped: dW, dBias) are executed with
	// split-K parallelism by cuBLAS; model the extra thread-level
	// parallelism so occupancy reflects the real kernel choice.
	splitK := k / 4
	if splitK < 1 {
		splitK = 1
	}
	if splitK > 512 {
		splitK = 512
	}
	threads := m * n * splitK
	if threads > 1<<18 {
		threads = 1 << 18
	}
	e.launch(&gpu.Kernel{
		Name:    name,
		Class:   gpu.OpGEMM,
		Threads: threads,
		Mix: gpu.InstrMix{
			Fp32:    mnk,
			Int32:   mnk/3 + uint64(m*n)*6,
			Load:    mnk / 16,
			Store:   uint64(m * n),
			Control: mnk / 16,
		},
		Flops: 2 * mnk,
		Iops:  mnk / 3,
		Accesses: e.accesses([]gpu.Access{
			{Kind: gpu.LoadAccess, Base: e.addr(a), ElemBytes: elem, Count: a.Size(), Stride: 1, Repeat: repA},
			{Kind: gpu.LoadAccess, Base: e.addr(b), ElemBytes: elem, Count: b.Size(), Stride: 1, Repeat: repB},
			{Kind: gpu.StoreAccess, Base: e.addr(out), ElemBytes: elem, Count: out.Size(), Stride: 1},
		}),
		CodeBytes: 24 << 10,
		DepChain:  1.2,
		// Shallow-K products underfill the MMA tiles.
		Efficiency: clampEff(float64(k) / 128),
		Barriers:   (k+gemmTile-1)/gemmTile + 1,
	})
}

// AddBiasRows adds bias (length F) to every row of x (N,F), returning a new
// tensor.
func (e *Engine) AddBiasRows(x, bias *tensor.Tensor) *tensor.Tensor {
	n, f := check2D("AddBiasRows", x)
	if bias.Size() != f {
		shapePanic("AddBiasRows", x, bias)
	}
	out := e.arena.New(n, f)
	e.be.AddBiasRows(out.Data(), x.Data(), bias.Data(), n, f)
	e.launchElementWise("add_bias", 2, out.Size(), []*tensor.Tensor{x, bias}, out)
	return out
}
