package obs

import (
	"sort"
	"sync/atomic"
)

// sortedNames returns map keys in sorted order (deterministic exports).
func sortedNames[M any](m map[string]M) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counter is a monotonically increasing int64 metric. All methods are
// race-safe, and a nil *Counter (from a nil Run) records nothing.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 metric (live bytes, pool depth, ...).
type Gauge struct {
	v atomic.Int64
}

// Add adds delta, which may be negative.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to v if v exceeds the current value — a
// race-safe high-watermark update (peak bytes, max depth).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket int64 histogram. bounds holds the inclusive
// upper bound of each bucket; observations above the last bound land in an
// implicit overflow bucket, and observations at or below the first bound
// (including negative values — underflow) land in the first bucket, as in
// the Prometheus exposition convention.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is overflow (+Inf)
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records v.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// bucketIndex returns the index of the bucket v falls in: the first bucket
// whose upper bound is >= v, or the overflow bucket.
func (h *Histogram) bucketIndex(v int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// QuantileFromBuckets computes the interpolated q-quantile of a bucketed
// distribution: bounds are the inclusive per-bucket upper bounds and counts
// holds one entry per bound plus a final overflow bucket (the Histogram and
// HistogramSnapshot layouts). The total is taken from counts itself so a
// copied snapshot is always self-consistent.
func QuantileFromBuckets(bounds []int64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank > next {
			cum = next
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: no upper edge; clamp to the last bound.
			return float64(bounds[len(bounds)-1])
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(bounds[i-1])
		} else if bounds[0] < 0 {
			// All-negative first bucket: its lower edge is unknown; use
			// the bound itself rather than inventing mass below it.
			lo = float64(bounds[0])
		}
		hi := float64(bounds[i])
		frac := (rank - cum) / float64(c)
		return lo + frac*(hi-lo)
	}
	return float64(bounds[len(bounds)-1])
}

// BucketCounts returns the per-bucket observation counts, non-cumulative;
// the final entry is the overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}
