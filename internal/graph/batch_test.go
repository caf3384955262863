package graph

import (
	"math/rand"
	"testing"
)

func triangle() *CSR {
	return FromEdges(3, 3, []Edge{
		{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0},
	})
}

func TestBatchBlockDiagonal(t *testing.T) {
	g1 := triangle()
	g2 := FromEdges(2, 2, []Edge{{0, 1}, {1, 0}})
	b := NewBatch([]*CSR{g1, g2})

	if len(b.NodeOffset)-1 != 2 || b.NumNodes() != 5 {
		t.Fatalf("batch dims: %d graphs, %d nodes", len(b.NodeOffset)-1, b.NumNodes())
	}
	if err := b.Adj.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Adj.NNZ() != g1.NNZ()+g2.NNZ() {
		t.Fatal("edge count changed")
	}
	// No cross-graph edges.
	for dst := 0; dst < b.NumNodes(); dst++ {
		for _, src := range b.Adj.Neighbors(dst) {
			if b.GraphID[src] != b.GraphID[dst] {
				t.Fatalf("cross-graph edge %d->%d", src, dst)
			}
		}
	}
	s1, e1 := b.GraphNodes(0)
	s2, e2 := b.GraphNodes(1)
	if s1 != 0 || e1 != 3 || s2 != 3 || e2 != 5 {
		t.Fatalf("offsets: [%d,%d) [%d,%d)", s1, e1, s2, e2)
	}
	// Edges shifted correctly: g2's 0->1 becomes 3->4.
	if !b.Adj.HasEdge(3, 4) {
		t.Fatal("shifted edge missing")
	}
}

func TestBatchRejectsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewBatch([]*CSR{FromEdges(2, 3, nil)})
}

func TestBatchEmptyAndSingle(t *testing.T) {
	b := NewBatch(nil)
	if len(b.NodeOffset)-1 != 0 || b.NumNodes() != 0 {
		t.Fatal("empty batch should be empty")
	}
	one := NewBatch([]*CSR{triangle()})
	if one.NumNodes() != 3 || one.Adj.NNZ() != 6 {
		t.Fatal("single batch mangled")
	}
}

func TestBatchManyRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var gs []*CSR
	total := 0
	for i := 0; i < 20; i++ {
		n := 3 + rng.Intn(10)
		gs = append(gs, RandomGNP(rng, n, 0.3))
		total += n
	}
	b := NewBatch(gs)
	if b.NumNodes() != total {
		t.Fatalf("nodes = %d, want %d", b.NumNodes(), total)
	}
	if err := b.Adj.Validate(); err != nil {
		t.Fatal(err)
	}
	// GraphID consistent with offsets.
	for g := 0; g < len(b.NodeOffset)-1; g++ {
		s, e := b.GraphNodes(g)
		for v := s; v < e; v++ {
			if b.GraphID[v] != int32(g) {
				t.Fatalf("GraphID[%d] = %d, want %d", v, b.GraphID[v], g)
			}
		}
	}
}
