package serve

import (
	"math/rand"
	"sort"
)

// Load generation: a deterministic open arrival process for the serving
// plane. Poisson traffic is pregenerated as a sorted request slice, a pure
// function of its seed.

// LoadConfig describes an open arrival process.
type LoadConfig struct {
	Seed     int64
	QPS      float64 // mean arrival rate (requests per simulated second)
	Duration float64 // horizon in simulated seconds
	Items    int     // item-id space [0, Items)
	// ZipfS shapes the item-popularity distribution (s > 1, default 1.2;
	// v is 1). Skewed popularity is what gives an embedding cache its hit
	// rate.
	ZipfS float64
}

func (c *LoadConfig) defaults() {
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
}

// OpenArrivals generates the open arrival trace for cfg: exponential
// inter-arrival gaps at rate QPS, Zipf item popularity, timestamps strictly
// within [0, Duration).
func OpenArrivals(cfg LoadConfig) []Request {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Items-1))
	var reqs []Request
	t := 0.0
	for cfg.QPS > 0 { // a non-positive rate generates nothing
		t += rng.ExpFloat64() / cfg.QPS
		if t >= cfg.Duration {
			break
		}
		reqs = append(reqs, Request{Time: t, Item: int32(zipf.Uint64()), Seq: len(reqs)})
	}
	return reqs
}

// SliceSource replays a fixed request slice in time order: it feeds the
// server's event loop its arrivals.
type SliceSource struct {
	reqs []Request
	i    int
}

// NewSliceSource sorts reqs by time (stable, renumbering Seq) and returns a
// source replaying them.
func NewSliceSource(reqs []Request) *SliceSource {
	sorted := append([]Request(nil), reqs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	for i := range sorted {
		sorted[i].Seq = i
	}
	return &SliceSource{reqs: sorted}
}

// Peek returns the earliest pending arrival's time.
func (s *SliceSource) Peek() (float64, bool) {
	if s.i >= len(s.reqs) {
		return 0, false
	}
	return s.reqs[s.i].Time, true
}

// Pop removes and returns the earliest pending arrival.
func (s *SliceSource) Pop() Request {
	r := s.reqs[s.i]
	s.i++
	return r
}
