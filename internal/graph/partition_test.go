package graph

import (
	"math/rand"
	"testing"
)

func TestPartitionBFSBalancedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := PreferentialAttachment(rng, 400, 3)
	for _, k := range []int{1, 2, 4} {
		parts, cut := PartitionBFS(g, k)
		if len(parts) != g.Rows {
			t.Fatalf("k=%d: %d labels", k, len(parts))
		}
		for i, p := range parts {
			if p < 0 || int(p) >= k {
				t.Fatalf("k=%d: node %d part %d out of range", k, i, p)
			}
		}
		sizes := make([]int, k)
		for _, p := range parts {
			sizes[p]++
		}
		for _, s := range sizes {
			if s < g.Rows/(2*k) {
				t.Fatalf("k=%d: unbalanced sizes %v", k, sizes)
			}
		}
		if k == 1 && cut != 0 {
			t.Fatalf("single part has cut %d", cut)
		}
		if k > 1 && cut == 0 {
			t.Fatalf("k=%d: connected graph must have a nonzero cut", k)
		}
	}
}

// ringLattice joins every node of an n-ring to its half nearest neighbours
// on each side, stored symmetrically: the locality-rich shape.
func ringLattice(n, half int) *CSR {
	var edges []Edge
	for i := 0; i < n; i++ {
		for d := 1; d <= half; d++ {
			j := int32((i + d) % n)
			edges = append(edges, Edge{Src: int32(i), Dst: j}, Edge{Src: j, Dst: int32(i)})
		}
	}
	return FromEdges(n, n, edges)
}

func TestPartitionBFSLocalityBeatsRandom(t *testing.T) {
	// BFS region growing should cut far fewer edges than a random split on
	// a locality-rich graph.
	rng := rand.New(rand.NewSource(4))
	g := ringLattice(300, 3)
	_, bfsCut := PartitionBFS(g, 4)

	randParts := make([]int32, g.Rows)
	for i := range randParts {
		randParts[i] = int32(rng.Intn(4))
	}
	randCut := 0
	for dst := 0; dst < g.Rows; dst++ {
		for _, src := range g.Neighbors(dst) {
			if randParts[src] != randParts[dst] {
				randCut++
			}
		}
	}
	if bfsCut >= randCut/2 {
		t.Fatalf("BFS cut %d not clearly below random cut %d", bfsCut, randCut)
	}
}

func TestPartitionBFSPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for k=0")
		}
	}()
	PartitionBFS(triangle(), 0)
}
