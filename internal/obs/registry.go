package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. Metric creation takes a lock; recording is
// lock-free (atomics), so handles are safe to share across goroutines and
// cheap enough for per-op hot paths. The zero Registry is not usable;
// construct with NewRegistry.
type Registry struct {
	// on gates recording for every metric created from this registry.
	on atomic.Bool

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty, enabled registry. (The process-wide
// Default registry starts disabled instead; Enable turns it on.)
func NewRegistry() *Registry {
	r := &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
	r.on.Store(true)
	return r
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{on: &r.on}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{on: &r.on}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (ascending) on first use. Later calls return the existing
// histogram; the bounds argument is then ignored.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending: " + name)
		}
	}
	h := &Histogram{
		on:      &r.on,
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.histograms[name] = h
	return h
}

// Reset zeroes every metric's value, keeping all handles valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.histograms {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
	}
}

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
// race-safe; recording is a no-op while the owning registry is disabled.
type Counter struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (no-op when disabled).
func (c *Counter) Add(n int64) {
	if c == nil || !c.on.Load() {
		return
	}
	c.v.Add(n)
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
	on *atomic.Bool
	v  atomic.Int64
}

// Set stores v (no-op when disabled).
func (g *Gauge) Set(v int64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.v.Store(v)
}

// Add adds delta, which may be negative (no-op when disabled).
func (g *Gauge) Add(delta int64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v exceeds the current value — a
// race-safe high-watermark update (peak bytes, max depth).
func (g *Gauge) SetMax(v int64) {
	if g == nil || !g.on.Load() {
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
	on      *atomic.Bool
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is overflow (+Inf)
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records v (no-op when disabled).
func (h *Histogram) Observe(v int64) {
	if h == nil || !h.on.Load() {
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

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// distribution from the bucket counts, interpolating linearly inside the
// bucket that holds the target rank. The estimate is exact at bucket
// boundaries and degrades with bucket width in between; serving-latency
// dashboards call it for p50/p95/p99. Observations in the overflow bucket
// clamp to the last bound (the histogram cannot see past it), and an empty
// histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return QuantileFromBuckets(h.bounds, h.BucketCounts(), q)
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
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}
