package ops

import (
	"fmt"

	"gnnmark/internal/gpu"
	"gnnmark/internal/tensor"
)

// Permute4D reorders the dimensions of a 4-D tensor: output dimension i is
// input dimension perm[i]. Lowered as a strided-copy kernel (the NCHW<->NHWC
// layout transposes cuDNN inserts around convolutions).
func (e *Engine) Permute4D(x *tensor.Tensor, perm [4]int) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("ops: Permute4D requires 4-D, got %v", x.Shape()))
	}
	seen := [4]bool{}
	for _, p := range perm {
		if p < 0 || p > 3 || seen[p] {
			panic(fmt.Sprintf("ops: invalid permutation %v", perm))
		}
		seen[p] = true
	}
	in := x.Shape()
	inDims := [4]int{in[0], in[1], in[2], in[3]}
	outShape := []int{in[perm[0]], in[perm[1]], in[perm[2]], in[perm[3]]}
	out := e.arena.New(outShape...)
	e.be.Permute4D(x.Data(), out.Data(), inDims, perm)
	if e.dev != nil {
		elem := e.fpElem()
		n := x.Size()
		// A tiled (shared-memory) transpose keeps both streams coalesced up
		// to tile granularity; residual stride-2 captures partial-tile and
		// bank-conflict overheads.
		is := [4]int{in[1] * in[2] * in[3], in[2] * in[3], in[3], 1}
		stride := is[perm[3]]
		if stride < 1 {
			stride = 1
		}
		if stride > 2 {
			stride = 2
		}
		e.launch(&gpu.Kernel{
			Name:    "permute4d",
			Class:   gpu.OpElementWise,
			Threads: n,
			Mix: gpu.InstrMix{
				Int32: uint64(n) * 4,
				Load:  uint64(n),
				Store: uint64(n),
			},
			Iops: uint64(n) * 3,
			Accesses: e.accesses([]gpu.Access{
				{Kind: gpu.LoadAccess, Base: e.addr(x), ElemBytes: elem, Count: n, Stride: stride},
				{Kind: gpu.StoreAccess, Base: e.addr(out), ElemBytes: elem, Count: n, Stride: 1},
			}),
			CodeBytes: 2 << 10,
			DepChain:  1.3,
			Barriers:  2,
		})
	}
	return out
}

// InversePerm4 returns the permutation that undoes perm.
func InversePerm4(perm [4]int) [4]int {
	var inv [4]int
	for i, p := range perm {
		inv[p] = i
	}
	return inv
}
