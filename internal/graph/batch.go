package graph

import "fmt"

// Batch merges a list of small graphs into one block-diagonal graph, the
// DGL "graph batching" mechanism the paper highlights for Tree-LSTM, k-GNN
// and DeepGCN molecular workloads: many small graphs become one kernel-sized
// graph so per-kernel launch overheads amortize.
type Batch struct {
	// Adj is the block-diagonal adjacency over all batched nodes.
	Adj *CSR
	// GraphID maps each batched node to the index of its source graph.
	GraphID []int32
	// NodeOffset[i] is the first batched-node index of graph i;
	// NodeOffset[len(graphs)] == total nodes.
	NodeOffset []int32
}

// NewBatch builds the block-diagonal batch of square adjacencies.
func NewBatch(graphs []*CSR) *Batch {
	totalNodes := 0
	totalEdges := 0
	for i, g := range graphs {
		if g.Rows != g.Cols {
			panic(fmt.Sprintf("graph: batch member %d is not square (%dx%d)", i, g.Rows, g.Cols))
		}
		totalNodes += g.Rows
		totalEdges += g.NNZ()
	}
	edges := make([]Edge, 0, totalEdges)
	graphID := make([]int32, totalNodes)
	offsets := make([]int32, len(graphs)+1)
	base := int32(0)
	for i, g := range graphs {
		offsets[i] = base
		for dst := 0; dst < g.Rows; dst++ {
			graphID[base+int32(dst)] = int32(i)
			for _, src := range g.Neighbors(dst) {
				edges = append(edges, Edge{Src: base + src, Dst: base + int32(dst)})
			}
		}
		base += int32(g.Rows)
	}
	offsets[len(graphs)] = base
	return &Batch{
		Adj:        FromEdges(totalNodes, totalNodes, edges),
		GraphID:    graphID,
		NodeOffset: offsets,
	}
}

// NumNodes returns the total batched node count.
func (b *Batch) NumNodes() int { return b.Adj.Rows }

// GraphNodes returns the [start, end) batched-node range of graph i.
func (b *Batch) GraphNodes(i int) (int32, int32) {
	return b.NodeOffset[i], b.NodeOffset[i+1]
}
