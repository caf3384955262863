package graph

import (
	"cmp"
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

		slices.Sort(trace)
		nbrs, weights := RankVisits(trace, topK, nil, nil)
		if !slices.Equal(nbrs, want) {
			t.Fatalf("RankVisits(%v, top %d) = %v, want %v", trace, topK, nbrs, want)
		}
		total := 0
		for _, it := range want {
			total += counts[it]
		}
		for i, it := range want {
			if w := float32(counts[it]) / float32(total); weights[i] != w {
				t.Fatalf("weight %d = %v, want %v", i, weights[i], w)
			}
		}
	}
}

// rankVisitsRef is the ranker RankVisits replaced, kept as its reference:
// count the unsorted trace in a map, sort every distinct item by (count
// desc, item asc), keep topK.
func rankVisitsRef(trace []int32, topK int) (nbrs []int32, weights []float32) {
	visits := map[int32]int{}
	for _, v := range trace {
		visits[v]++
	}
	type kv struct {
		item  int32
		count int
	}
	ranked := make([]kv, 0, len(visits))
	for it, c := range visits {
		ranked = append(ranked, kv{it, c})
	}
	slices.SortFunc(ranked, func(a, b kv) int {
		return cmp.Or(cmp.Compare(b.count, a.count), cmp.Compare(a.item, b.item))
	})
	k := max(0, min(topK, len(ranked)))
	total := 0
	for i := 0; i < k; i++ {
		total += ranked[i].count
	}
	for i := 0; i < k; i++ {
		nbrs = append(nbrs, ranked[i].item)
		weights = append(weights, float32(ranked[i].count)/float32(total))
	}
	return nbrs, weights
}

// FuzzRankEquivalence holds RankVisits to rankVisitsRef bit for bit: each
// input byte is one visit (its low bits the item, so small alphabets tie
// often), topK runs from 0 past the distinct count and past the ranker's
// stack buffer, and the output lands after whatever the buffers already
// held, untouched.
func FuzzRankEquivalence(f *testing.F) {
	// testdata/fuzz/FuzzRankEquivalence holds the named cases (empty trace,
	// topK 0, ties at the cut, topK above the distinct count and above 16).
	f.Add([]byte("every visit is to a different item!"), uint8(40), uint8(0xff))
	f.Fuzz(func(t *testing.T, visits []byte, topK, mask uint8) {
		trace := make([]int32, len(visits))
		for i, v := range visits {
			trace[i] = int32(v&mask) - 3 // a few negative ids too
		}
		wantN, wantW := rankVisitsRef(trace, int(topK))

		slices.Sort(trace)
		nbrs, weights := RankVisits(trace, int(topK), []int32{-9, -8}, []float32{0.5})
		if !slices.Equal(nbrs[:2], []int32{-9, -8}) || weights[0] != 0.5 {
			t.Fatalf("RankVisits overwrote its buffers' contents: %v %v", nbrs[:2], weights[:1])
		}
		if !slices.Equal(nbrs[2:], wantN) || !slices.Equal(weights[1:], wantW) {
			t.Fatalf("RankVisits(%v, top %d) = %v %v, want %v %v", trace, topK, nbrs[2:], weights[1:], wantN, wantW)
		}
	})
}
