package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// partitionCases builds a spread of graph shapes for the property tests.
func partitionCases(t *testing.T) map[string]*CSR {
	t.Helper()
	return map[string]*CSR{
		"pa-200":    PreferentialAttachment(rand.New(rand.NewSource(7)), 200, 3),
		"ring-150":  ringLattice(150, 2),
		"gnp-120":   RandomGNP(rand.New(rand.NewSource(9)), 120, 0.05),
		"empty":     FromEdges(0, 0, nil),
		"singleton": FromEdges(1, 1, nil),
	}
}

// bruteCut recounts the cut by scanning every edge against the labeling.
func bruteCut(g *CSR, parts []int32) int {
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

// TestPartitionProperties checks, for every partitioner and graph shape:
// every node assigned exactly once to a part in [0, k), the reported edge
// cut matching a brute-force count, determinism across runs, and the part
// count respected (no part overfull; every part populated when k <= n).
func TestPartitionProperties(t *testing.T) {
	type method struct {
		name string
		run  func(g *CSR, k int) ([]int32, int)
	}
	methods := []method{
		{"bfs", func(g *CSR, k int) ([]int32, int) { return PartitionBFS(g, k) }},
		{"random", func(g *CSR, k int) ([]int32, int) { return PartitionRandom(g, k, 11) }},
	}
	for gname, g := range partitionCases(t) {
		for _, m := range methods {
			for _, k := range []int{1, 2, 3, 4, 7} {
				parts, cut := m.run(g, k)
				if len(parts) != g.Rows {
					t.Fatalf("%s/%s k=%d: %d labels for %d nodes", m.name, gname, k, len(parts), g.Rows)
				}
				for i, p := range parts {
					if p < 0 || int(p) >= k {
						t.Fatalf("%s/%s k=%d: node %d part %d out of [0,%d)", m.name, gname, k, i, p, k)
					}
				}
				if want := bruteCut(g, parts); cut != want {
					t.Fatalf("%s/%s k=%d: cut %d, brute force %d", m.name, gname, k, cut, want)
				}
				sizes := make([]int, k)
				for _, p := range parts {
					sizes[p]++
				}
				total := 0
				for p, s := range sizes {
					total += s
					if k <= g.Rows && s == 0 {
						t.Fatalf("%s/%s k=%d: part %d empty with %d nodes available", m.name, gname, k, p, g.Rows)
					}
				}
				if total != g.Rows {
					t.Fatalf("%s/%s k=%d: sizes %v cover %d of %d nodes", m.name, gname, k, sizes, total, g.Rows)
				}
				parts2, cut2 := m.run(g, k)
				if cut2 != cut || !reflect.DeepEqual(parts, parts2) {
					t.Fatalf("%s/%s k=%d: nondeterministic partition", m.name, gname, k)
				}
			}
		}
	}
}

// TestPartitionBFSDegenerate pins the graceful-degradation contract: empty
// graphs return an empty labeling, k > n yields singleton parts.
func TestPartitionBFSDegenerate(t *testing.T) {
	empty := FromEdges(0, 0, nil)
	parts, cut := PartitionBFS(empty, 5)
	if len(parts) != 0 || cut != 0 {
		t.Fatalf("empty graph: parts=%v cut=%d", parts, cut)
	}
	g := PreferentialAttachment(rand.New(rand.NewSource(5)), 6, 2)
	parts, _ = PartitionBFS(g, 10)
	for i, p := range parts {
		if int(p) != i {
			t.Fatalf("k>n: node %d in part %d, want singleton parts", i, p)
		}
	}
}

// TestPartitionPlanStructure validates the plan invariants the partitioned
// engine depends on: local numbering, halo completeness, route symmetry,
// and local-SpMM row equivalence with the global matrix.
func TestPartitionPlanStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := PreferentialAttachment(rng, 300, 3).NormalizeGCN()
	const k = 4
	parts, _ := PartitionBFS(g, k)
	plan := NewPartitionPlan(g, parts, k)

	ownedTotal := 0
	for p, lp := range plan.Local {
		ownedTotal += len(lp.Owned)
		// Owned and halo are ascending and local indices invert correctly.
		for i, v := range lp.Owned {
			if lp.localOf[v] != int32(i) {
				t.Fatalf("part %d: owned %d local index %d, want %d", p, v, lp.localOf[v], i)
			}
			if plan.Parts[v] != int32(p) {
				t.Fatalf("part %d claims node %d labeled %d", p, v, plan.Parts[v])
			}
		}
		for i, h := range lp.Halo {
			if lp.localOf[h] != int32(len(lp.Owned)+i) {
				t.Fatalf("part %d: halo %d bad local index", p, h)
			}
			if plan.Parts[h] == int32(p) {
				t.Fatalf("part %d: halo %d is owned", p, h)
			}
		}
		// Every local row reproduces the global row bitwise: same weights,
		// same entry order, columns mapping back to the same global ids.
		for i, v := range lp.Owned {
			gn, gw := g.Neighbors(int(v)), g.Weights(int(v))
			ln, lw := lp.Adj.Neighbors(i), lp.Adj.Weights(i)
			if len(gn) != len(ln) {
				t.Fatalf("part %d row %d: %d entries, global %d", p, i, len(ln), len(gn))
			}
			for j := range gn {
				if lp.localOf[gn[j]] != ln[j] || gw[j] != lw[j] {
					t.Fatalf("part %d row %d entry %d: local (%d,%v) vs global (%d,%v)",
						p, i, j, ln[j], lw[j], gn[j], gw[j])
				}
			}
		}
		// Routes cover the halo exactly once, sources owned by the peer.
		covered := 0
		for q, rt := range lp.In {
			if len(rt.Src) != len(rt.Dst) {
				t.Fatalf("part %d route from %d: src/dst mismatch", p, q)
			}
			covered += len(rt.Dst)
			for i := range rt.Src {
				gsrc := plan.Local[q].Owned[rt.Src[i]]
				if lp.Halo[int(rt.Dst[i])-len(lp.Owned)] != gsrc {
					t.Fatalf("part %d route from %d entry %d routes wrong vertex", p, q, i)
				}
			}
		}
		if covered != len(lp.Halo) {
			t.Fatalf("part %d: routes cover %d of %d halo rows", p, covered, len(lp.Halo))
		}
	}
	if ownedTotal != g.Rows {
		t.Fatalf("owned sets cover %d of %d nodes", ownedTotal, g.Rows)
	}
	if plan.EdgeCut <= 0 {
		t.Fatalf("connected graph, zero cut")
	}
	for p, lp := range plan.Local {
		if got := lp.HaloBytes(8); got%32 != 0 {
			t.Fatalf("part %d: halo bytes not a multiple of row bytes: %d", p, got)
		}
	}
}
