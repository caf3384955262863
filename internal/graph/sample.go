package graph

import (
	"cmp"
	"math/rand"
	"slices"
)

// RandomWalkSampler implements PinSAGE-style importance-based neighbor
// sampling on a bipartite item-user-item graph: short random walks from each
// seed item, alternating item->user->item hops, with visit counts ranking
// the most important item neighbors.
type RandomWalkSampler struct {
	// ItemToUser rows are users reached from items (user <- item edges
	// reversed as needed); UserToItem the converse.
	ItemToUser *CSR // rows: users, cols: items? see NewRandomWalkSampler
	UserToItem *CSR

	// NumWalks is the number of walks per seed; WalkLength the number of
	// item-to-item hops per walk; TopK the number of neighbors kept.
	NumWalks   int
	WalkLength int
	TopK       int
}

// NewRandomWalkSampler builds a sampler from the two directed relations of
// a bipartite graph: userByItem has rows=users/cols=items ("item liked-by
// user", so Neighbors(user) lists that user's items is the transpose...).
// To keep orientation unambiguous the sampler takes:
//
//	itemUsers: rows=items, cols=users — Neighbors(item) = users who touched it
//	userItems: rows=users, cols=items — Neighbors(user) = items they touched
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
	return RankVisits(seed, s.WalkTrace(rng, seed), s.TopK)
}

// WalkTrace runs the seed's random walks and returns the raw visit list
// (every item reached, in walk order). The GPU sampler pipeline sorts and
// counts this trace on-device; callers forward it to the engine's sort so
// those kernels appear in the profile.
func (s *RandomWalkSampler) WalkTrace(rng *rand.Rand, seed int32) []int32 {
	var visits []int32
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
				visits = append(visits, cur)
			}
		}
	}
	return visits
}

// RankVisits counts a visit trace and returns the topK most-visited items
// with normalized importance weights.
func RankVisits(seed int32, trace []int32, topK int) NeighborSample {
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
	k := topK
	if k > len(ranked) {
		k = len(ranked)
	}
	out := NeighborSample{Seed: seed}
	total := 0
	for i := 0; i < k; i++ {
		total += ranked[i].count
	}
	for i := 0; i < k; i++ {
		out.Neighbors = append(out.Neighbors, ranked[i].item)
		out.Weights = append(out.Weights, float32(ranked[i].count)/float32(total))
	}
	return out
}
