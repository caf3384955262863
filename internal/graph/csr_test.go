package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCSR() *CSR {
	// 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0  (src -> dst)
	return FromEdges(3, 3, []Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
	})
}

func TestFromEdgesBasic(t *testing.T) {
	g := smallCSR()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NNZ() != 4 {
		t.Fatalf("nnz = %d, want 4", g.NNZ())
	}
	if g.Degree(2) != 2 {
		t.Fatalf("in-degree(2) = %d, want 2", g.Degree(2))
	}
	nb := g.Neighbors(2)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 1 {
		t.Fatalf("Neighbors(2) = %v, want [0 1]", nb)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
}

func TestFromEdgesPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FromEdges(2, 2, []Edge{{Src: 0, Dst: 5}})
}

func TestTransposeInvolution(t *testing.T) {
	g := smallCSR()
	tt := g.Transpose().Transpose()
	if tt.Rows != g.Rows || tt.NNZ() != g.NNZ() {
		t.Fatal("transpose changed size")
	}
	for i := 0; i < g.Rows; i++ {
		a, b := g.Neighbors(i), tt.Neighbors(i)
		if len(a) != len(b) {
			t.Fatalf("row %d degree changed", i)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("row %d differs: %v vs %v", i, a, b)
			}
		}
	}
}

func TestTransposeWeights(t *testing.T) {
	g := smallCSR()
	g.Vals = []float32{1, 2, 3, 4}
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edge 2->0 had the weight at row 0 position 0 (only entry).
	w := g.Weights(0)[0]
	// In the transpose it lives in row 2 (dst=2... src/dst swap): find it.
	found := false
	for i := 0; i < tr.Rows; i++ {
		for k, c := range tr.Neighbors(i) {
			if i == 2 && c == 0 {
				if tr.Weights(i)[k] != w {
					t.Fatalf("weight not carried: %g vs %g", tr.Weights(i)[k], w)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("transposed edge not found")
	}
}

func TestWithSelfLoops(t *testing.T) {
	g := smallCSR()
	s := g.WithSelfLoops()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Rows; i++ {
		if !s.HasEdge(int32(i), int32(i)) {
			t.Fatalf("node %d missing self loop", i)
		}
	}
	if s.NNZ() != g.NNZ()+3 {
		t.Fatalf("nnz = %d, want %d", s.NNZ(), g.NNZ()+3)
	}
	// Idempotent: adding again must not duplicate.
	s2 := s.WithSelfLoops()
	if s2.NNZ() != s.NNZ() {
		t.Fatal("WithSelfLoops not idempotent")
	}
}

func TestNormalizeGCNRowsums(t *testing.T) {
	// For a k-regular graph the GCN-normalized matrix has row sums 1.
	// Build an undirected cycle (2-regular + self loop -> 3 entries/row).
	n := 8
	var edges []Edge
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		edges = append(edges, Edge{Src: int32(i), Dst: int32(j)}, Edge{Src: int32(j), Dst: int32(i)})
	}
	g := FromEdges(n, n, edges).NormalizeGCN()
	for i := 0; i < n; i++ {
		var sum float64
		for _, w := range g.Weights(i) {
			sum += float64(w)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sum = %g, want 1", i, sum)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := smallCSR()
	g.RowPtr[1] = 99
	if g.Validate() == nil {
		t.Fatal("corrupt RowPtr not detected")
	}
	g = smallCSR()
	g.ColIdx[0] = 77
	if g.Validate() == nil {
		t.Fatal("out-of-range column not detected")
	}
	g = smallCSR()
	g.Vals = []float32{1}
	if g.Validate() == nil {
		t.Fatal("short Vals not detected")
	}
}

func TestRandomGNPProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, p := 200, 0.05
	g := RandomGNP(rng, n, p)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expected edges ~ n*(n-1)*p = 1990; allow generous slack.
	want := float64(n) * float64(n-1) * p
	if got := float64(g.NNZ()); got < want*0.7 || got > want*1.3 {
		t.Fatalf("GNP edges = %g, want ~%g", got, want)
	}
	for i := 0; i < n; i++ {
		if g.HasEdge(int32(i), int32(i)) {
			t.Fatal("GNP must not generate self loops")
		}
	}
}

func TestRandomGNPDeterministic(t *testing.T) {
	a := RandomGNP(rand.New(rand.NewSource(7)), 100, 0.1)
	b := RandomGNP(rand.New(rand.NewSource(7)), 100, 0.1)
	if a.NNZ() != b.NNZ() {
		t.Fatal("GNP not deterministic per seed")
	}
}

func TestPreferentialAttachment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := PreferentialAttachment(rng, 300, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Undirected: every edge stored both ways.
	for dst := 0; dst < g.Rows; dst++ {
		for _, src := range g.Neighbors(dst) {
			if !g.HasEdge(int32(dst), src) {
				t.Fatalf("edge (%d,%d) not symmetric", src, dst)
			}
		}
	}
	// Degree skew: max degree far above the mean (scale-free shape).
	maxDeg, sumDeg := 0, 0
	for i := 0; i < g.Rows; i++ {
		d := g.Degree(i)
		sumDeg += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sumDeg) / float64(g.Rows)
	if float64(maxDeg) < 3*mean {
		t.Fatalf("max degree %d not skewed vs mean %.1f", maxDeg, mean)
	}
}

func TestCSRRoundTripProperty(t *testing.T) {
	// Property: FromEdges preserves the multiset of in-bound edges.
	f := func(raw []uint8) bool {
		n := 16
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{Src: int32(raw[i] % uint8(n)), Dst: int32(raw[i+1] % uint8(n))})
		}
		g := FromEdges(n, n, edges)
		if g.Validate() != nil || g.NNZ() != len(edges) {
			return false
		}
		count := map[[2]int32]int{}
		for _, e := range edges {
			count[[2]int32{e.Src, e.Dst}]++
		}
		for dst := 0; dst < n; dst++ {
			for _, src := range g.Neighbors(dst) {
				count[[2]int32{src, int32(dst)}]--
			}
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
