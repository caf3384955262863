package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// bipartiteFixture builds a small item-user graph: items {0..3}, users
// {0..2}. User 0 touched items {0,1}, user 1 items {1,2}, user 2 items {2,3}.
func bipartiteFixture() (itemUsers, userItems *CSR) {
	ui := []Edge{ // src=user, dst=item
		{0, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 2}, {2, 3},
	}
	itemUsers = FromEdges(4, 3, ui) // rows: items, cols: users
	rev := make([]Edge, len(ui))
	for i, e := range ui {
		rev[i] = Edge{Src: e.Dst, Dst: e.Src}
	}
	userItems = FromEdges(3, 4, rev) // rows: users, cols: items
	return
}

func TestRandomWalkSample(t *testing.T) {
	itemUsers, userItems := bipartiteFixture()
	s := NewRandomWalkSampler(itemUsers, userItems, 50, 3, 2)
	rng := rand.New(rand.NewSource(9))
	got := s.Sample(rng, 1)

	if got.Seed != 1 {
		t.Fatal("seed mangled")
	}
	if len(got.Neighbors) == 0 || len(got.Neighbors) > 2 {
		t.Fatalf("neighbors = %v, want 1..2", got.Neighbors)
	}
	// Item 1 can reach items 0 and 2 in one hop; never itself.
	for _, nb := range got.Neighbors {
		if nb == 1 {
			t.Fatal("seed must not be its own neighbor")
		}
	}
	// Weights normalized and decreasing.
	var sum float32
	for i, w := range got.Weights {
		sum += w
		if i > 0 && w > got.Weights[i-1] {
			t.Fatal("weights must be ranked descending")
		}
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("weights sum = %g, want 1", sum)
	}
}

func TestRandomWalkDeterministicPerSeed(t *testing.T) {
	itemUsers, userItems := bipartiteFixture()
	s := NewRandomWalkSampler(itemUsers, userItems, 20, 2, 3)
	a := s.Sample(rand.New(rand.NewSource(4)), 2)
	b := s.Sample(rand.New(rand.NewSource(4)), 2)
	if len(a.Neighbors) != len(b.Neighbors) {
		t.Fatal("sampler not deterministic")
	}
	for i := range a.Neighbors {
		if a.Neighbors[i] != b.Neighbors[i] {
			t.Fatal("sampler not deterministic")
		}
	}
}

func TestRandomWalkIsolatedItem(t *testing.T) {
	// An item with no users yields an empty sample rather than a panic.
	itemUsers := FromEdges(2, 1, []Edge{{Src: 0, Dst: 0}}) // item 1 isolated
	userItems := FromEdges(1, 2, []Edge{{Src: 0, Dst: 0}})
	s := NewRandomWalkSampler(itemUsers, userItems, 10, 2, 3)
	got := s.Sample(rand.New(rand.NewSource(1)), 1)
	if len(got.Neighbors) != 0 {
		t.Fatalf("isolated item produced neighbors %v", got.Neighbors)
	}
}

// TestRankVisitsMatchesReflectionSort pins RankVisits against the sort.Slice
// ranking it replaced, on random traces full of count ties: (count desc, item
// asc) is a total order over distinct items, so the ranking is unique.
func TestRankVisitsMatchesReflectionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		trace := make([]int32, rng.Intn(120))
		for i := range trace {
			trace[i] = int32(rng.Intn(25))
		}
		topK := 1 + rng.Intn(12)

		counts := map[int32]int{}
		for _, v := range trace {
			counts[v]++
		}
		var items []int32
		for it := range counts {
			items = append(items, it)
		}
		sort.Slice(items, func(i, j int) bool {
			if counts[items[i]] != counts[items[j]] {
				return counts[items[i]] > counts[items[j]]
			}
			return items[i] < items[j]
		})
		want := items[:min(topK, len(items))]

		got := RankVisits(3, trace, topK)
		if !slices.Equal(got.Neighbors, want) {
			t.Fatalf("RankVisits(%v, top %d) = %v, want %v", trace, topK, got.Neighbors, want)
		}
		total := 0
		for _, it := range want {
			total += counts[it]
		}
		for i, it := range want {
			if w := float32(counts[it]) / float32(total); got.Weights[i] != w {
				t.Fatalf("weight %d = %v, want %v", i, got.Weights[i], w)
			}
		}
	}
}
