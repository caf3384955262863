package graph

import "math/rand"

// PartitionBFS splits a square adjacency into k balanced parts by seeded
// BFS region growing: a lightweight stand-in for METIS-style partitioners.
// The paper's multi-GPU takeaway is that "fine-grained graph partitioning
// ... proposed in graph-centric GNN frameworks such as ROC and NeuGraph
// should be adopted"; this is the primitive that study needs.
//
// Returns the part id per node and the edge cut (edges whose endpoints land
// in different parts).
//
// Degenerate inputs are handled gracefully rather than by caller
// discipline: an empty graph returns an empty labeling with zero cut, and
// k > n yields singleton parts (node i in part i, parts n..k-1 empty).
// Non-square adjacencies and k <= 0 remain programmer errors and panic.
func PartitionBFS(g *CSR, k int) (parts []int32, edgeCut int) {
	if g.Rows != g.Cols {
		panic("graph: PartitionBFS requires a square adjacency")
	}
	if k <= 0 {
		panic("graph: PartitionBFS requires k > 0")
	}
	n := g.Rows
	parts = make([]int32, n)
	for i := range parts {
		parts[i] = -1
	}
	if n == 0 {
		return parts, 0
	}
	if k > n {
		// More parts than nodes: every node is its own part.
		for i := range parts {
			parts[i] = int32(i)
		}
		return parts, countCut(g, parts)
	}
	target := (n + k - 1) / k
	rev := g.Transpose()

	part := int32(0)
	size := 0
	var queue []int32
	next := 0 // next unassigned node scan cursor
	for assigned := 0; assigned < n; {
		if len(queue) == 0 {
			// Seed a new BFS from the lowest unassigned node.
			for next < n && parts[next] >= 0 {
				next++
			}
			queue = append(queue, int32(next))
			parts[next] = part
			size++
			assigned++
		}
		v := queue[0]
		queue = queue[1:]
		grow := func(nbrs []int32) {
			for _, nb := range nbrs {
				if parts[nb] < 0 && size < target {
					parts[nb] = part
					size++
					assigned++
					queue = append(queue, nb)
				}
			}
		}
		grow(g.Neighbors(int(v)))
		grow(rev.Neighbors(int(v)))
		if size >= target && part < int32(k-1) {
			part++
			size = 0
			queue = queue[:0]
		}
	}

	return parts, countCut(g, parts)
}

// countCut counts directed edges whose endpoints carry different labels.
func countCut(g *CSR, parts []int32) int {
	cut := 0
	for dst := 0; dst < g.Rows; dst++ {
		for _, src := range g.Neighbors(dst) {
			if parts[src] != parts[dst] {
				cut++
			}
		}
	}
	return cut
}

// PartitionRandom splits a square adjacency into k parts by a seeded
// uniform-random node assignment (round-robin base so every part is
// populated, then a deterministic shuffle). It is the locality-free
// baseline for edge-cut sensitivity studies: same balance as PartitionBFS,
// none of the BFS locality, so the cut — and with it the halo volume of
// partitioned training — is near the random-split ceiling. Degenerate
// inputs follow PartitionBFS's contract.
func PartitionRandom(g *CSR, k int, seed int64) (parts []int32, edgeCut int) {
	if g.Rows != g.Cols {
		panic("graph: PartitionRandom requires a square adjacency")
	}
	if k <= 0 {
		panic("graph: PartitionRandom requires k > 0")
	}
	n := g.Rows
	parts = make([]int32, n)
	for i := range parts {
		parts[i] = int32(i % k)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	return parts, countCut(g, parts)
}
