package ops

import (
	"gnnmark/internal/gpu"
	"gnnmark/internal/graph"
	"gnnmark/internal/tensor"
)

// SpMM computes A @ X for a CSR adjacency A (Rows x Cols) and dense X
// (Cols, F): the aggregation primitive of message-passing GNN layers. Edge
// weights in A.Vals are applied when present.
//
// The kernel recipe captures the defining architectural property of SpMM on
// GPUs: feature rows of X are gathered by column index, so consecutive warps
// touch scattered rows — low L1 locality, high divergence — while popular
// (high-degree) columns hit in L2. The actual ColIdx array flows into the
// access stream, making behavior dataset-dependent as in the paper.
func (e *Engine) SpMM(a *graph.CSR, x *tensor.Tensor) *tensor.Tensor {
	xr, f := check2D("SpMM", x)
	if xr != a.Cols {
		panic("ops: SpMM dimension mismatch: adjacency cols != feature rows")
	}
	out := e.arena.New(a.Rows, f)
	e.be.SpMM(a.RowPtr, a.ColIdx, a.Vals, x.Data(), out.Data(), a.Rows, f)
	e.launchSpMM("spmm_csr", a, x, out, f)
	return out
}

func (e *Engine) launchSpMM(name string, a *graph.CSR, x, out *tensor.Tensor, f int) {
	if e.dev == nil {
		return
	}
	nnz := uint64(a.NNZ())
	rows := uint64(a.Rows)
	elem := e.fpElem()
	// Row-gather stream: one transaction group per nonzero, targeting the
	// start of the source feature row; Repeat covers the row's F elements in
	// 32-wide chunks.
	chunks := rowChunks(f)
	gatherIdx := make([]int32, a.NNZ())
	for i, c := range a.ColIdx {
		gatherIdx[i] = c * int32(f)
	}
	e.launch(&gpu.Kernel{
		Name:    name,
		Class:   gpu.OpSpMM,
		Threads: a.Rows * 32 * chunks,
		Mix: gpu.InstrMix{
			Fp32:    nnz * uint64(f),
			Int32:   nnz*8 + rows*4 + nnz*uint64(f),
			Load:    nnz*2 + nnz*uint64(chunks),
			Store:   rows * uint64(f) / 4,
			Control: nnz * 2,
		},
		Flops: 2 * nnz * uint64(f),
		Iops:  nnz*8 + nnz*uint64(f),
		Accesses: func() []gpu.Access {
			rp, ci := e.csrAddr(a)
			return e.accesses([]gpu.Access{
				{Kind: gpu.LoadAccess, Base: rp, ElemBytes: 4, Count: a.Rows + 1, Stride: 1},
				{Kind: gpu.LoadAccess, Base: ci, ElemBytes: 4, Count: a.NNZ(), Stride: 1},
				{Kind: gpu.LoadAccess, Base: e.addr(x), ElemBytes: elem, Indices: gatherIdx, Repeat: chunks},
				{Kind: gpu.StoreAccess, Base: e.addr(out), ElemBytes: elem, Count: out.Size(), Stride: 1},
			})
		}(),
		CodeBytes: 8 << 10,
		DepChain:  2.0,
		Barriers:  1,
	})
}
