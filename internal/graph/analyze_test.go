package graph

import (
	"math/rand"
	"testing"
)

func TestDegreeStatsRegularGraph(t *testing.T) {
	// Undirected cycle: every node has in-degree 2.
	n := 10
	var edges []Edge
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		edges = append(edges, Edge{Src: int32(i), Dst: int32(j)}, Edge{Src: int32(j), Dst: int32(i)})
	}
	st := Degrees(FromEdges(n, n, edges))
	if st.Max != 2 {
		t.Fatalf("regular graph stats wrong: %+v", st)
	}
	if st.Gini > 1e-9 {
		t.Fatalf("regular graph Gini = %g, want 0", st.Gini)
	}
}

func TestDegreeStatsSkewedGraph(t *testing.T) {
	// A star graph is maximally skewed.
	n := 50
	var edges []Edge
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{Src: int32(i), Dst: 0})
	}
	st := Degrees(FromEdges(n, n, edges))
	if st.Max != n-1 {
		t.Fatalf("star stats wrong: %+v", st)
	}
	if st.Gini < 0.9 {
		t.Fatalf("star Gini = %g, want near 1", st.Gini)
	}
	// Preferential attachment sits between regular and star.
	pa := Degrees(PreferentialAttachment(rand.New(rand.NewSource(1)), 300, 3))
	if pa.Gini <= 0.05 || pa.Gini >= 0.9 {
		t.Fatalf("scale-free Gini = %g, want intermediate skew", pa.Gini)
	}
	if Degrees(FromEdges(0, 0, nil)) != (DegreeStats{}) {
		t.Fatal("empty graph stats must be zero")
	}
}
