package graph

import (
	"fmt"
	"sort"
)

// PartitionPlan materializes everything the partitioned-training strategy
// needs from a node labeling of one large graph: per part, the owned
// vertex set, the ghost (halo) vertex set its rows read across the cut,
// a local re-numbered adjacency whose per-row entry order matches the
// global matrix exactly, and the peer-to-peer routes that move boundary
// rows every GNN layer.
//
// Local numbering per part: owned vertices first, in ascending global id
// ([0, len(Owned))), then halo vertices, ascending ([len(Owned), Ext())).
// Because each local row keeps its global entry order and carries the
// global edge weights, SpMM over the local matrix produces bitwise the
// same owned rows as SpMM over the global matrix — partitioned forward
// activations match single-device training exactly; only cross-partition
// gradient accumulation reassociates.
type PartitionPlan struct {
	K       int
	N       int     // global node count
	Parts   []int32 // part id per global node
	EdgeCut int
	Local   []*LocalPart // indexed by part id
}

// HaloRoute is one peer's contribution to a part's halo: Src[i] is the
// source row in the peer's owned-local numbering, Dst[i] the destination
// row in the receiving part's extended numbering. Pairs are ordered by
// ascending global id, so both sides enumerate the route identically.
type HaloRoute struct {
	Src []int32
	Dst []int32
}

// LocalPart is one part's view of the partitioned graph.
type LocalPart struct {
	// Owned holds this part's global vertex ids, ascending.
	Owned []int32
	// Halo holds the global ids of ghost vertices (in-neighbors owned by
	// other parts), ascending.
	Halo []int32
	// Adj has Rows = len(Owned) (this part's rows of the global matrix)
	// and Cols = Ext(), with columns renumbered into local space and
	// per-row entry order preserved from the global matrix.
	Adj *CSR
	// AdjT is Adj's transpose (Rows = Ext(), Cols = len(Owned)), used by
	// the backward pass to push output gradients to extended inputs.
	AdjT *CSR
	// In[q] routes the rows this part receives from peer q each exchange
	// (empty route for q == own part id).
	In []HaloRoute

	localOf []int32 // global id -> local index, -1 when absent
}

// Ext returns the extended (owned + halo) row count.
func (lp *LocalPart) Ext() int { return len(lp.Owned) + len(lp.Halo) }

// HaloBytes returns the wire bytes this part receives per exchange of
// featDim fp32 features per ghost row.
func (lp *LocalPart) HaloBytes(featDim int) uint64 {
	return uint64(len(lp.Halo)) * uint64(featDim) * 4
}

// BoundaryFraction is the share of this part's owned rows that some other
// part reads as halo — the rows a boundary-first schedule computes (and
// publishes) ahead of the interior. Used by the overlap timing model.
func (lp *LocalPart) BoundaryFraction(plan *PartitionPlan, self int) float64 {
	if len(lp.Owned) == 0 {
		return 0
	}
	boundary := make(map[int32]struct{})
	for q, other := range plan.Local {
		if q == self {
			continue
		}
		for _, r := range other.In[self].Src {
			boundary[r] = struct{}{}
		}
	}
	return float64(len(boundary)) / float64(len(lp.Owned))
}

// NewPartitionPlan builds the plan for a square (typically GCN-normalized)
// adjacency under the given k-way labeling. The labeling must assign every
// node a part in [0, k); PartitionBFS and PartitionRandom both qualify.
func NewPartitionPlan(g *CSR, parts []int32, k int) *PartitionPlan {
	if g.Rows != g.Cols {
		panic("graph: NewPartitionPlan requires a square adjacency")
	}
	if len(parts) != g.Rows {
		panic(fmt.Sprintf("graph: %d labels for %d nodes", len(parts), g.Rows))
	}
	n := g.Rows
	plan := &PartitionPlan{K: k, N: n, Parts: parts, EdgeCut: countCut(g, parts), Local: make([]*LocalPart, k)}
	for p := 0; p < k; p++ {
		plan.Local[p] = &LocalPart{localOf: make([]int32, n)}
		for i := range plan.Local[p].localOf {
			plan.Local[p].localOf[i] = -1
		}
	}
	// Owned sets: ascending global id by construction of the scan.
	for v := 0; v < n; v++ {
		p := parts[v]
		if p < 0 || int(p) >= k {
			panic(fmt.Sprintf("graph: node %d labeled %d outside [0,%d)", v, p, k))
		}
		lp := plan.Local[p]
		lp.localOf[v] = int32(len(lp.Owned))
		lp.Owned = append(lp.Owned, int32(v))
	}
	// Halo sets: remote in-neighbors of owned rows, ascending global id
	// (one scan over all vertices keeps the order canonical).
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	for p := 0; p < k; p++ {
		lp := plan.Local[p]
		for _, v := range lp.Owned {
			for _, src := range g.Neighbors(int(v)) {
				if parts[src] != int32(p) && seen[src] != int32(p) {
					seen[src] = int32(p)
					lp.Halo = append(lp.Halo, src)
				}
			}
		}
		sortInt32s(lp.Halo)
		base := int32(len(lp.Owned))
		for i, h := range lp.Halo {
			lp.localOf[h] = base + int32(i)
		}
	}
	// Local adjacencies: this part's global rows with columns renumbered,
	// entry order preserved so per-row accumulation matches the global SpMM.
	for p := 0; p < k; p++ {
		lp := plan.Local[p]
		rows := len(lp.Owned)
		rowPtr := make([]int32, rows+1)
		for i, v := range lp.Owned {
			rowPtr[i+1] = rowPtr[i] + int32(g.Degree(int(v)))
		}
		colIdx := make([]int32, rowPtr[rows])
		var vals []float32
		if g.Vals != nil {
			vals = make([]float32, rowPtr[rows])
		}
		for i, v := range lp.Owned {
			nbrs := g.Neighbors(int(v))
			ws := g.Weights(int(v))
			base := rowPtr[i]
			for j, src := range nbrs {
				colIdx[base+int32(j)] = lp.localOf[src]
				if vals != nil {
					vals[base+int32(j)] = ws[j]
				}
			}
		}
		lp.Adj = &CSR{Rows: rows, Cols: lp.Ext(), RowPtr: rowPtr, ColIdx: colIdx, Vals: vals}
		lp.AdjT = lp.Adj.Transpose()
	}
	// Halo routes: ghost rows grouped by owner, in ascending global id.
	for p := 0; p < k; p++ {
		lp := plan.Local[p]
		lp.In = make([]HaloRoute, k)
		for i, h := range lp.Halo {
			owner := parts[h]
			rt := &lp.In[owner]
			rt.Src = append(rt.Src, plan.Local[owner].localOf[h])
			rt.Dst = append(rt.Dst, int32(len(lp.Owned)+i))
		}
	}
	return plan
}

func sortInt32s(a []int32) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}
