package graph

import (
	"fmt"
	"sort"
)

// Relation names one edge type of a heterogeneous graph as a
// (source node type, edge type, destination node type) triple, DGL-style.
type Relation struct {
	SrcType, EdgeType, DstType string
}

// String renders the canonical "src:etype:dst" form.
func (r Relation) String() string {
	return r.SrcType + ":" + r.EdgeType + ":" + r.DstType
}

// Hetero is a heterogeneous graph: multiple node types, each with its own
// node count, and one CSR per relation. PinSAGE-style recommendation graphs
// (user/item bipartite with typed interactions) are instances.
type Hetero struct {
	nodeCounts map[string]int
	relations  map[Relation]*CSR
}

// NewHetero creates an empty heterogeneous graph.
func NewHetero() *Hetero {
	return &Hetero{nodeCounts: map[string]int{}, relations: map[Relation]*CSR{}}
}

// AddNodeType declares a node type with count nodes. Re-declaring with a
// different count panics (programmer error).
func (h *Hetero) AddNodeType(name string, count int) {
	if c, ok := h.nodeCounts[name]; ok && c != count {
		panic(fmt.Sprintf("graph: node type %q redeclared with count %d (was %d)", name, count, c))
	}
	h.nodeCounts[name] = count
}

// NumNodes returns the node count of a type (0 when undeclared).
func (h *Hetero) NumNodes(nodeType string) int { return h.nodeCounts[nodeType] }

// AddRelation installs the adjacency of one relation. The CSR's rows must
// equal the destination type's node count and columns the source type's.
func (h *Hetero) AddRelation(rel Relation, adj *CSR) {
	nd, okd := h.nodeCounts[rel.DstType]
	ns, oks := h.nodeCounts[rel.SrcType]
	if !okd || !oks {
		panic(fmt.Sprintf("graph: relation %v references undeclared node types", rel))
	}
	if adj.Rows != nd || adj.Cols != ns {
		panic(fmt.Sprintf("graph: relation %v adjacency is %dx%d, want %dx%d",
			rel, adj.Rows, adj.Cols, nd, ns))
	}
	h.relations[rel] = adj
}

// Adj returns the adjacency of a relation, or nil when absent.
func (h *Hetero) Adj(rel Relation) *CSR { return h.relations[rel] }

// Validate checks all relation adjacencies, in sorted relation order so the
// first error reported does not depend on map iteration.
func (h *Hetero) Validate() error {
	rels := make([]Relation, 0, len(h.relations))
	for r := range h.relations {
		rels = append(rels, r)
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].String() < rels[j].String() })
	for _, rel := range rels {
		if err := h.relations[rel].Validate(); err != nil {
			return fmt.Errorf("relation %v: %w", rel, err)
		}
	}
	return nil
}
