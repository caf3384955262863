package graph

import "testing"

func buildBipartite(t *testing.T) (*Hetero, Relation, Relation) {
	t.Helper()
	h := NewHetero()
	h.AddNodeType("user", 3)
	h.AddNodeType("item", 4)
	liked := Relation{SrcType: "user", EdgeType: "liked", DstType: "item"}
	likedBy := Relation{SrcType: "item", EdgeType: "liked-by", DstType: "user"}
	edges := []Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 1, Dst: 1}, {Src: 2, Dst: 3}}
	h.AddRelation(liked, FromEdges(4, 3, edges))
	rev := make([]Edge, len(edges))
	for i, e := range edges {
		rev[i] = Edge{Src: e.Dst, Dst: e.Src}
	}
	h.AddRelation(likedBy, FromEdges(3, 4, rev))
	return h, liked, likedBy
}

func TestHeteroBasics(t *testing.T) {
	h, liked, _ := buildBipartite(t)
	if h.NumNodes("user") != 3 || h.NumNodes("item") != 4 {
		t.Fatal("node counts wrong")
	}
	if h.NumNodes("missing") != 0 {
		t.Fatal("undeclared type must have 0 nodes")
	}
	if h.Adj(liked) == nil {
		t.Fatal("relation lost")
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := liked.String(); got != "user:liked:item" {
		t.Fatalf("relation renders as %q", got)
	}
}

func TestHeteroAddRelationChecksShape(t *testing.T) {
	h := NewHetero()
	h.AddNodeType("a", 2)
	h.AddNodeType("b", 3)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on shape mismatch")
		}
	}()
	h.AddRelation(Relation{SrcType: "a", EdgeType: "x", DstType: "b"}, FromEdges(2, 2, nil))
}

func TestHeteroRedeclareMismatchPanics(t *testing.T) {
	h := NewHetero()
	h.AddNodeType("a", 2)
	h.AddNodeType("a", 2) // same count is fine
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on count change")
		}
	}()
	h.AddNodeType("a", 5)
}

func TestHeteroUndeclaredTypePanics(t *testing.T) {
	h := NewHetero()
	h.AddNodeType("a", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for undeclared node type")
		}
	}()
	h.AddRelation(Relation{SrcType: "a", EdgeType: "x", DstType: "ghost"}, FromEdges(1, 2, nil))
}
