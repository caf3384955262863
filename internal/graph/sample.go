package graph

import (
	"math/rand"
	"slices"
)

// RandomWalkSampler implements PinSAGE-style importance-based neighbor
// sampling on a bipartite item-user-item graph: short random walks from each
// seed item, alternating item->user->item hops, with visit counts ranking
// the most important item neighbors.
type RandomWalkSampler struct {
	// ItemToUser has rows=items, cols=users: Neighbors(item) lists the users
	// who touched it. UserToItem is its transpose (rows=users, cols=items):
	// Neighbors(user) lists the items they touched.
	ItemToUser *CSR
	UserToItem *CSR

	// NumWalks is the number of walks per seed; WalkLength the number of
	// item-to-item hops per walk; TopK the number of neighbors kept.
	NumWalks   int
	WalkLength int
	TopK       int
}

// NewRandomWalkSampler builds a sampler from the two directed relations of
// a bipartite graph, oriented as the ItemToUser and UserToItem fields say.
func NewRandomWalkSampler(itemUsers, userItems *CSR, numWalks, walkLength, topK int) *RandomWalkSampler {
	return &RandomWalkSampler{
		ItemToUser: itemUsers,
		UserToItem: userItems,
		NumWalks:   numWalks,
		WalkLength: walkLength,
		TopK:       topK,
	}
}

// NeighborSample holds the sampled neighborhood of one seed: neighbor item
// ids with normalized importance weights, ordered by decreasing weight.
type NeighborSample struct {
	Seed      int32
	Neighbors []int32
	Weights   []float32
}

// Sample runs random walks from seed and returns its TopK item neighbors by
// visit count. Walk state is drawn from rng (deterministic per seed+rng).
func (s *RandomWalkSampler) Sample(rng *rand.Rand, seed int32) NeighborSample {
	trace := s.WalkTrace(rng, seed, make([]int32, 0, s.NumWalks*s.WalkLength))
	slices.Sort(trace)
	out := NeighborSample{Seed: seed}
	out.Neighbors, out.Weights = RankVisits(trace, s.TopK, make([]int32, 0, s.TopK), make([]float32, 0, s.TopK))
	return out
}

// WalkTrace runs the seed's random walks and appends the raw visit list
// (every item reached, in walk order) to buf. The GPU sampler pipeline sorts
// and counts this trace on-device; callers forward it to the engine's sort
// so those kernels appear in the profile, and rank its sorted output.
func (s *RandomWalkSampler) WalkTrace(rng *rand.Rand, seed int32, buf []int32) []int32 {
	for w := 0; w < s.NumWalks; w++ {
		cur := seed
		for h := 0; h < s.WalkLength; h++ {
			users := s.ItemToUser.Neighbors(int(cur))
			if len(users) == 0 {
				break
			}
			u := users[rng.Intn(len(users))]
			items := s.UserToItem.Neighbors(int(u))
			if len(items) == 0 {
				break
			}
			cur = items[rng.Intn(len(items))]
			if cur != seed {
				buf = append(buf, cur)
			}
		}
	}
	return buf
}

// RankVisits counts an ascending visit trace by run length and appends its
// topK most-visited items (count descending, item ascending on ties) to
// nbrs and their normalized importance weights to w. It allocates only when
// those buffers grow (or topK exceeds 16).
func RankVisits(sorted []int32, topK int, nbrs []int32, w []float32) ([]int32, []float32) {
	var buf [16]int
	counts := buf[:0] // counts[i] is the visit count of nbrs[base+i]
	base := len(nbrs)
	for lo, hi := 0, 0; lo < len(sorted) && topK > 0; lo = hi {
		for hi = lo + 1; hi < len(sorted) && sorted[hi] == sorted[lo]; hi++ {
		}
		c := hi - lo
		// Runs arrive item-ascending, so a run goes below every kept count
		// that is not strictly smaller.
		p := len(counts)
		for p > 0 && counts[p-1] < c {
			p--
		}
		if p == topK {
			continue
		}
		if len(counts) < topK {
			counts, nbrs = append(counts, 0), append(nbrs, 0)
		}
		copy(counts[p+1:], counts[p:])
		copy(nbrs[base+p+1:], nbrs[base+p:])
		counts[p], nbrs[base+p] = c, sorted[lo]
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	for _, c := range counts {
		w = append(w, float32(c)/float32(total))
	}
	return nbrs, w
}
