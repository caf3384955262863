package obs

import (
	"sync"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	r := NewRun()
	h := r.Histogram("h", []int64{10, 100, 1000})

	// Underflow (negative and below first bound) lands in bucket 0; bounds
	// are inclusive upper limits; above the last bound is the overflow.
	for _, v := range []int64{-5, 0, 10} {
		h.Observe(v)
	}
	h.Observe(11)   // bucket 1
	h.Observe(100)  // bucket 1 (inclusive)
	h.Observe(999)  // bucket 2
	h.Observe(1001) // overflow
	h.Observe(1 << 40)

	got := h.BucketCounts()
	want := []int64{3, 2, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.count.Load() != 8 {
		t.Fatalf("Count = %d, want 8", h.count.Load())
	}
	if wantSum := int64(-5 + 0 + 10 + 11 + 100 + 999 + 1001 + 1<<40); h.Sum() != wantSum {
		t.Fatalf("Sum = %d, want %d", h.Sum(), wantSum)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-ascending bounds")
		}
	}()
	NewRun().Histogram("bad", []int64{10, 10})
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRun()
	c := r.Counter("c")
	h := r.Histogram("h", DurationBuckets())
	g := r.Gauge("g")
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %d, want %d", g.Value(), workers*per)
	}
	if h.count.Load() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.count.Load(), workers*per)
	}
}

func TestGaugeSetMax(t *testing.T) {
	r := NewRun()
	g := r.Gauge("peak")
	g.SetMax(10)
	g.SetMax(5)
	if g.Value() != 10 {
		t.Fatalf("SetMax lowered the watermark: %d", g.Value())
	}
	g.SetMax(25)
	if g.Value() != 25 {
		t.Fatalf("SetMax did not raise: %d", g.Value())
	}
}

func TestDisabledRegistryRecordsNothing(t *testing.T) {
	// A nil run is observability off: it hands out nil handles, which
	// record nothing and read zero.
	var r *Run
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []int64{1})
	c.Add(7)
	g.Add(7)
	g.SetMax(7)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 || h.BucketCounts() != nil {
		t.Fatalf("nil run recorded: c=%d g=%d h=%d", c.Value(), g.Value(), h.Sum())
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil run snapshot = %+v, want empty", s)
	}
	// Two runs in one process keep apart what they record.
	a, b := NewRun(), NewRun()
	a.Counter("c").Inc()
	if b.Counter("c").Value() != 0 || a.Counter("c").Value() != 1 {
		t.Fatalf("runs share a counter: a=%d b=%d", a.Counter("c").Value(), b.Counter("c").Value())
	}
}

func TestResetKeepsHandlesValid(t *testing.T) {
	r := NewRun()
	c := r.Counter("c")
	h := r.Histogram("h", []int64{1, 2})
	c.Add(3)
	h.Observe(1)
	r.reset()
	if c.Value() != 0 || h.count.Load() != 0 {
		t.Fatalf("reset left values: c=%d h=%d", c.Value(), h.count.Load())
	}
	c.Inc()
	h.Observe(2)
	if c.Value() != 1 || h.count.Load() != 1 {
		t.Fatalf("handles dead after reset: c=%d h=%d", c.Value(), h.count.Load())
	}
	if r.Counter("c") != c {
		t.Fatal("Counter() returned a new handle after reset")
	}
}

// quantile is h's q-quantile as a snapshot reports it: QuantileFromBuckets
// over the histogram's bounds and current counts.
func quantile(h *Histogram, q float64) float64 {
	return QuantileFromBuckets(h.bounds, h.BucketCounts(), q)
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRun()
	h := r.Histogram("q", []int64{10, 20, 40})
	// 10 observations in (10,20]: quantiles interpolate linearly across
	// that bucket, so pN lands at 10 + N/10 of the bucket width.
	for i := 0; i < 10; i++ {
		h.Observe(15)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {0.5, 15}, {0.95, 19.5}, {1, 20},
	}
	for _, c := range cases {
		if got := quantile(h, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Out-of-range q clamps rather than extrapolating.
	if got := quantile(h, 1.5); got != 20 {
		t.Errorf("Quantile(1.5) = %v, want 20", got)
	}
	if got := quantile(h, -1); got != 10 {
		t.Errorf("Quantile(-1) = %v, want 10", got)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	r := NewRun()

	empty := r.Histogram("empty", []int64{10, 20})
	if got := quantile(empty, 0.99); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	if got := QuantileFromBuckets(nil, nil, 0.5); got != 0 {
		t.Errorf("bucketless Quantile = %v, want 0", got)
	}

	// Overflow observations clamp to the last bound: the histogram cannot
	// see past it.
	over := r.Histogram("over", []int64{10, 20})
	over.Observe(1_000_000)
	over.Observe(2_000_000)
	if got := quantile(over, 0.99); got != 20 {
		t.Errorf("overflow Quantile = %v, want 20", got)
	}

	// A first bucket holding negative observations uses its own bound as
	// the lower edge instead of inventing mass below it.
	neg := r.Histogram("neg", []int64{-5, 10})
	neg.Observe(-7)
	if got := quantile(neg, 0.5); got != -5 {
		t.Errorf("negative-bucket Quantile = %v, want -5", got)
	}

	// Multi-bucket spread: ranks must skip empty buckets correctly.
	multi := r.Histogram("multi", []int64{10, 20, 30, 40})
	for _, v := range []int64{5, 5, 35, 35} {
		multi.Observe(v)
	}
	if got := quantile(multi, 0.25); got != 5 {
		t.Errorf("multi Quantile(0.25) = %v, want 5", got)
	}
	if got := quantile(multi, 1); got != 40 {
		t.Errorf("multi Quantile(1) = %v, want 40", got)
	}
}
