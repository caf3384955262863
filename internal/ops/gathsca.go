package ops

import (
	"cmp"
	"fmt"
	"slices"

	"gnnmark/internal/gpu"
	"gnnmark/internal/tensor"
)

func checkRowIndices(op string, idx []int32, rows int) {
	for _, v := range idx {
		if v < 0 || int(v) >= rows {
			panic(fmt.Sprintf("ops: %s index %d out of range [0,%d)", op, v, rows))
		}
	}
}

// GatherRows returns x[idx] for x (N,F): out (len(idx),F). The backward of
// this op is ScatterAddRows.
func (e *Engine) GatherRows(x *tensor.Tensor, idx []int32) *tensor.Tensor {
	return e.gatherRows("gather_rows", gpu.OpGather, x, idx)
}

// IndexSelectRows is semantically identical to GatherRows but is lowered as
// the framework's index_select kernel (its own class in the paper's op
// taxonomy; used when materializing node subsets and embedding batches).
func (e *Engine) IndexSelectRows(x *tensor.Tensor, idx []int32) *tensor.Tensor {
	return e.gatherRows("index_select", gpu.OpIndexSelect, x, idx)
}

func (e *Engine) gatherRows(name string, class gpu.OpClass, x *tensor.Tensor, idx []int32) *tensor.Tensor {
	n, f := check2D(name, x)
	checkRowIndices(name, idx, n)
	out := tensor.New(len(idx), f)
	e.be.GatherRows(x.Data(), out.Data(), idx, f)
	if e.dev != nil {
		elem := e.fpElem()
		m := uint64(len(idx))
		chunks := rowChunks(f)
		e.launch(&gpu.Kernel{
			Name:    name,
			Class:   class,
			Threads: len(idx) * 32 * chunks,
			Mix: gpu.InstrMix{
				Int32:   m * uint64(4+4*chunks),
				Load:    m * uint64(chunks+1),
				Store:   m * uint64(chunks),
				Control: m * uint64(chunks),
			},
			Iops: m * uint64(4+4*chunks),
			Accesses: []gpu.Access{
				{Kind: gpu.LoadAccess, Base: e.intAddr(idx), ElemBytes: 4, Count: len(idx), Stride: 1},
				{Kind: gpu.LoadAccess, Base: e.addr(x), ElemBytes: elem, Indices: rowIndexStream(idx, f), Repeat: chunks},
				{Kind: gpu.StoreAccess, Base: e.addr(out), ElemBytes: elem, Count: out.Size(), Stride: 1},
			},
			CodeBytes: 1 << 10,
			DepChain:  1.8,
		})
	}
	return out
}

// ScatterAddRows accumulates src rows into dst at positions idx:
// dst[idx[i]] += src[i]. dst is modified in place (it is also returned for
// chaining). This is the backward of GatherRows and the aggregation
// primitive of scatter-based GNN layers (PyG).
func (e *Engine) ScatterAddRows(dst, src *tensor.Tensor, idx []int32) *tensor.Tensor {
	dn, df := check2D("ScatterAddRows", dst)
	sn, sf := check2D("ScatterAddRows", src)
	if df != sf || sn != len(idx) {
		shapePanic("ScatterAddRows", dst, src)
	}
	checkRowIndices("ScatterAddRows", idx, dn)
	e.be.ScatterAddRows(dst.Data(), src.Data(), idx, df)
	if e.dev != nil {
		elem := e.fpElem()
		m := uint64(len(idx))
		chunks := rowChunks(sf)
		e.launch(&gpu.Kernel{
			Name:    "scatter_add",
			Class:   gpu.OpScatter,
			Threads: len(idx) * 32 * chunks,
			Mix: gpu.InstrMix{
				Fp32:    m * uint64(sf),
				Int32:   m * uint64(4+4*chunks),
				Load:    m * uint64(2*chunks+1),
				Store:   m * uint64(chunks),
				Control: m * uint64(chunks),
			},
			Flops: m * uint64(sf),
			Iops:  m * uint64(4+4*chunks),
			Accesses: []gpu.Access{
				{Kind: gpu.LoadAccess, Base: e.intAddr(idx), ElemBytes: 4, Count: len(idx), Stride: 1},
				{Kind: gpu.LoadAccess, Base: e.addr(src), ElemBytes: elem, Count: src.Size(), Stride: 1},
				// Atomic read-modify-write on scattered destination rows.
				{Kind: gpu.LoadAccess, Base: e.addr(dst), ElemBytes: elem, Indices: rowIndexStream(idx, df), Repeat: chunks},
				{Kind: gpu.StoreAccess, Base: e.addr(dst), ElemBytes: elem, Indices: rowIndexStream(idx, df), Repeat: chunks},
			},
			CodeBytes: 1 << 10,
			// Atomic contention serializes colliding updates.
			DepChain: 2.5,
		})
	}
	return dst
}

// EmbeddingLookup returns table[ids] for an embedding table (V,F), lowered
// as the framework's embedding kernel class.
func (e *Engine) EmbeddingLookup(table *tensor.Tensor, ids []int32) *tensor.Tensor {
	v, f := check2D("EmbeddingLookup", table)
	checkRowIndices("EmbeddingLookup", ids, v)
	out := tensor.New(len(ids), f)
	e.be.GatherRows(table.Data(), out.Data(), ids, f)
	if e.dev != nil {
		elem := e.fpElem()
		m := uint64(len(ids))
		chunks := rowChunks(f)
		e.launch(&gpu.Kernel{
			Name:    "embedding",
			Class:   gpu.OpEmbedding,
			Threads: len(ids) * 32 * chunks,
			Mix: gpu.InstrMix{
				Int32:   m * uint64(3+4*chunks),
				Load:    m * uint64(chunks+1),
				Store:   m * uint64(chunks),
				Control: m * uint64(chunks),
			},
			Iops: m * uint64(3+4*chunks),
			Accesses: []gpu.Access{
				{Kind: gpu.LoadAccess, Base: e.intAddr(ids), ElemBytes: 4, Count: len(ids), Stride: 1},
				{Kind: gpu.LoadAccess, Base: e.addr(table), ElemBytes: elem, Indices: rowIndexStream(ids, f), Repeat: chunks},
				{Kind: gpu.StoreAccess, Base: e.addr(out), ElemBytes: elem, Count: out.Size(), Stride: 1},
			},
			CodeBytes: 1 << 10,
			DepChain:  1.6,
		})
	}
	return out
}

// SortInt32 returns a sorted copy of keys, lowered as a multi-pass radix
// sort kernel sequence (the sort class the paper attributes to neighbor
// bucketing in samplers and batching).
func (e *Engine) SortInt32(keys []int32) []int32 {
	return e.SortInt32Segments(keys, []int{len(keys)})
}

// SortInt32Segments is SortInt32 for a buffer of concatenated traces: it
// returns a copy of keys with each keys[ends[i-1]:ends[i]] sorted on its
// own (ends ascending, the last one len(keys)), under the one radix_sort
// launch over the whole buffer that SortInt32 lowers to.
func (e *Engine) SortInt32Segments(keys []int32, ends []int) []int32 {
	out := make([]int32, len(keys))
	copy(out, keys)
	lo := 0
	for _, hi := range ends {
		slices.Sort(out[lo:hi])
		lo = hi
	}
	e.launchSort("radix_sort", keys)
	return out
}

// ArgsortInt32 returns the permutation that sorts keys ascending (stable).
func (e *Engine) ArgsortInt32(keys []int32) []int32 {
	perm := make([]int32, len(keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	e.launchSort("argsort", keys)
	return perm
}

func (e *Engine) launchSort(name string, keys []int32) {
	if e.dev == nil || len(keys) == 0 {
		return
	}
	n := uint64(len(keys))
	const passes = 4 // 8-bit radix over int32
	// Scatter destinations are key-derived: real data skew shapes the
	// store pattern.
	scatterIdx := make([]int32, len(keys))
	for i, k := range keys {
		scatterIdx[i] = (k&0xff)*int32(len(keys)/256+1) + int32(i)%int32(len(keys)/256+1)
	}
	e.launch(&gpu.Kernel{
		Name:    name,
		Class:   gpu.OpSort,
		Threads: len(keys),
		Mix: gpu.InstrMix{
			Int32:   n * 6 * passes,
			Load:    n * 2 * passes,
			Store:   n * passes,
			Control: n * 2 * passes,
		},
		Iops: n * 6 * passes,
		Accesses: []gpu.Access{
			{Kind: gpu.LoadAccess, Base: e.intAddr(keys), ElemBytes: 4, Count: len(keys), Stride: 1, Repeat: passes},
			{Kind: gpu.StoreAccess, Base: e.intAddr(keys) + 1<<16, ElemBytes: 4, Indices: scatterIdx, Repeat: passes},
		},
		CodeBytes: 4 << 10,
		DepChain:  1.8,
		Barriers:  2 * passes,
	})
}
