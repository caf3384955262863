// Package graph provides the graph data structures and samplers the GNNMark
// workloads run on: CSR adjacency (homogeneous graphs), heterogeneous
// multi-relation graphs, batched graph collections, trees, random-walk
// neighbor sampling, and k-tuple graph construction for k-GNNs.
package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// CSR is a sparse matrix / adjacency structure in compressed sparse row
// form. Rows = destination nodes, columns = source nodes, so that
// SpMM(CSR, X) aggregates neighbor features into each row, matching the
// message-passing convention of DGL/PyG.
type CSR struct {
	// Rows and Cols are the matrix dimensions.
	Rows, Cols int
	// RowPtr has Rows+1 entries; row i's neighbors occupy
	// ColIdx[RowPtr[i]:RowPtr[i+1]].
	RowPtr []int32
	// ColIdx holds column indices per row, sorted ascending within a row.
	ColIdx []int32
	// Vals holds edge weights; nil means implicit all-ones.
	Vals []float32
}

// Edge is a directed (src -> dst) pair used by builders.
type Edge struct{ Src, Dst int32 }

// FromEdges builds a CSR with the given dimensions from a directed edge
// list. Duplicate edges are kept. Column indices are sorted within rows.
func FromEdges(rows, cols int, edges []Edge) *CSR {
	rowPtr := make([]int32, rows+1)
	for _, e := range edges {
		if e.Dst < 0 || int(e.Dst) >= rows || e.Src < 0 || int(e.Src) >= cols {
			panic(fmt.Sprintf("graph: edge (%d->%d) out of bounds for %dx%d", e.Src, e.Dst, rows, cols))
		}
		rowPtr[e.Dst+1]++
	}
	for i := 0; i < rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int32, len(edges))
	cursor := make([]int32, rows)
	for _, e := range edges {
		p := rowPtr[e.Dst] + cursor[e.Dst]
		colIdx[p] = e.Src
		cursor[e.Dst]++
	}
	g := &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx}
	g.sortRows()
	return g
}

func (g *CSR) sortRows() {
	for i := 0; i < g.Rows; i++ {
		row := g.ColIdx[g.RowPtr[i]:g.RowPtr[i+1]]
		slices.Sort(row)
	}
}

// NNZ returns the number of stored entries (edges).
func (g *CSR) NNZ() int { return len(g.ColIdx) }

// Degree returns the in-degree (row length) of node i.
func (g *CSR) Degree(i int) int { return int(g.RowPtr[i+1] - g.RowPtr[i]) }

// Neighbors returns node i's neighbor slice (shared storage; do not mutate).
func (g *CSR) Neighbors(i int) []int32 { return g.ColIdx[g.RowPtr[i]:g.RowPtr[i+1]] }

// Weights returns the weight slice of row i, or nil when unweighted.
func (g *CSR) Weights(i int) []float32 {
	if g.Vals == nil {
		return nil
	}
	return g.Vals[g.RowPtr[i]:g.RowPtr[i+1]]
}

// HasEdge reports whether (src -> dst) is present, via binary search.
func (g *CSR) HasEdge(src, dst int32) bool {
	row := g.Neighbors(int(dst))
	i := sort.Search(len(row), func(k int) bool { return row[k] >= src })
	return i < len(row) && row[i] == src
}

// Transpose returns the reverse graph (src/dst swapped), carrying weights.
func (g *CSR) Transpose() *CSR {
	rowPtr := make([]int32, g.Cols+1)
	for _, c := range g.ColIdx {
		rowPtr[c+1]++
	}
	for i := 0; i < g.Cols; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int32, len(g.ColIdx))
	var vals []float32
	if g.Vals != nil {
		vals = make([]float32, len(g.Vals))
	}
	cursor := make([]int32, g.Cols)
	for dst := 0; dst < g.Rows; dst++ {
		for p := g.RowPtr[dst]; p < g.RowPtr[dst+1]; p++ {
			src := g.ColIdx[p]
			q := rowPtr[src] + cursor[src]
			colIdx[q] = int32(dst)
			if vals != nil {
				vals[q] = g.Vals[p]
			}
			cursor[src]++
		}
	}
	t := &CSR{Rows: g.Cols, Cols: g.Rows, RowPtr: rowPtr, ColIdx: colIdx, Vals: vals}
	// Rows were built in ascending dst order, so they are already sorted.
	return t
}

// WithSelfLoops returns a copy of a square CSR with (i,i) added to every row
// that lacks it.
func (g *CSR) WithSelfLoops() *CSR {
	if g.Rows != g.Cols {
		panic("graph: self loops require a square adjacency")
	}
	edges := make([]Edge, 0, g.NNZ()+g.Rows)
	for dst := 0; dst < g.Rows; dst++ {
		has := false
		for _, src := range g.Neighbors(dst) {
			edges = append(edges, Edge{Src: src, Dst: int32(dst)})
			if int(src) == dst {
				has = true
			}
		}
		if !has {
			edges = append(edges, Edge{Src: int32(dst), Dst: int32(dst)})
		}
	}
	return FromEdges(g.Rows, g.Cols, edges)
}

// NormalizeGCN returns the symmetrically normalized adjacency with self
// loops, D^{-1/2}(A+I)D^{-1/2}: the Kipf-Welling GCN propagation operator.
func (g *CSR) NormalizeGCN() *CSR {
	a := g.WithSelfLoops()
	deg := make([]float32, a.Rows)
	for i := 0; i < a.Rows; i++ {
		deg[i] = float32(a.Degree(i))
	}
	a.Vals = make([]float32, a.NNZ())
	for dst := 0; dst < a.Rows; dst++ {
		for p := a.RowPtr[dst]; p < a.RowPtr[dst+1]; p++ {
			src := a.ColIdx[p]
			a.Vals[p] = 1 / sqrt32(deg[dst]*deg[src])
		}
	}
	return a
}

func sqrt32(x float32) float32 {
	if x <= 0 {
		return 1
	}
	return float32(math.Sqrt(float64(x)))
}

// Validate checks structural invariants and returns a descriptive error for
// the first violation (nil when well-formed).
func (g *CSR) Validate() error {
	if len(g.RowPtr) != g.Rows+1 {
		return fmt.Errorf("graph: RowPtr length %d, want %d", len(g.RowPtr), g.Rows+1)
	}
	if g.RowPtr[0] != 0 {
		return fmt.Errorf("graph: RowPtr[0] = %d, want 0", g.RowPtr[0])
	}
	if int(g.RowPtr[g.Rows]) != len(g.ColIdx) {
		return fmt.Errorf("graph: RowPtr end %d != nnz %d", g.RowPtr[g.Rows], len(g.ColIdx))
	}
	if g.Vals != nil && len(g.Vals) != len(g.ColIdx) {
		return fmt.Errorf("graph: Vals length %d != nnz %d", len(g.Vals), len(g.ColIdx))
	}
	for i := 0; i < g.Rows; i++ {
		if g.RowPtr[i] > g.RowPtr[i+1] {
			return fmt.Errorf("graph: RowPtr not monotone at row %d", i)
		}
		if g.RowPtr[i] < 0 || int(g.RowPtr[i+1]) > len(g.ColIdx) {
			return fmt.Errorf("graph: RowPtr out of range at row %d", i)
		}
		prev := int32(-1)
		for _, c := range g.Neighbors(i) {
			if c < 0 || int(c) >= g.Cols {
				return fmt.Errorf("graph: column %d out of range in row %d", c, i)
			}
			if c < prev {
				return fmt.Errorf("graph: row %d not sorted", i)
			}
			prev = c
		}
	}
	return nil
}

// RandomGNP returns an Erdős–Rényi directed graph on n nodes where each
// possible edge appears independently with probability p (self loops
// excluded). Deterministic per rng.
func RandomGNP(rng *rand.Rand, n int, p float64) *CSR {
	var edges []Edge
	// Geometric skipping: expected O(n^2 p) work.
	total := int64(n) * int64(n)
	pos := int64(-1)
	for {
		// Draw the gap to the next edge.
		u := rng.Float64()
		if u <= 0 {
			u = 1e-12
		}
		gap := int64(math.Log(u)/math.Log(1-p)) + 1
		pos += gap
		if pos >= total {
			break
		}
		src := int32(pos / int64(n))
		dst := int32(pos % int64(n))
		if src != dst {
			edges = append(edges, Edge{Src: src, Dst: dst})
		}
	}
	return FromEdges(n, n, edges)
}

// PreferentialAttachment returns a Barabási–Albert-style undirected graph
// (each edge stored in both directions) on n nodes with m attachments per
// new node: the degree-skewed shape of social and citation graphs.
func PreferentialAttachment(rng *rand.Rand, n, m int) *CSR {
	if n < m+1 {
		panic("graph: PreferentialAttachment requires n > m")
	}
	var edges []Edge
	// Repeated-node list for degree-proportional sampling.
	targets := make([]int32, 0, 2*n*m)
	for v := 0; v < m+1; v++ {
		for u := 0; u < v; u++ {
			edges = append(edges, Edge{Src: int32(u), Dst: int32(v)}, Edge{Src: int32(v), Dst: int32(u)})
			targets = append(targets, int32(u), int32(v))
		}
	}
	for v := m + 1; v < n; v++ {
		seen := map[int32]bool{}
		for len(seen) < m {
			t := targets[rng.Intn(len(targets))]
			if t != int32(v) {
				seen[t] = true
			}
		}
		// Attach in sorted order: map iteration order would make the
		// generated graph (and everything trained on it) vary run to run.
		picked := make([]int32, 0, m)
		for u := range seen {
			picked = append(picked, u)
		}
		sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
		for _, u := range picked {
			edges = append(edges, Edge{Src: u, Dst: int32(v)}, Edge{Src: int32(v), Dst: u})
			targets = append(targets, u, int32(v))
		}
	}
	return FromEdges(n, n, edges)
}
