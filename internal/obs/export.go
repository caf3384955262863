package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Snapshot is a point-in-time copy of a run's metrics, shaped for
// JSON export. Entries are sorted by name so exports are deterministic.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// CounterSnapshot is one counter's value.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's value.
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramSnapshot is one histogram's state. Counts has one entry per
// bound plus a final overflow bucket; entries are non-cumulative. P50/P95/
// P99 are the interpolated quantile estimates at snapshot time (see
// QuantileFromBuckets); serving latency SLOs read them directly from the
// export.
type HistogramSnapshot struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
}

// Quantile computes the interpolated q-quantile of the snapshotted
// distribution.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	return QuantileFromBuckets(h.Bounds, h.Counts, q)
}

// Snapshot copies the run's current metric values (empty on a nil run).
func (r *Run) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range sortedNames(r.counters) {
		s.Counters = append(s.Counters, CounterSnapshot{Name: n, Value: r.counters[n].v.Load()})
	}
	for _, n := range sortedNames(r.gauges) {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: n, Value: r.gauges[n].v.Load()})
	}
	for _, n := range sortedNames(r.histograms) {
		h := r.histograms[n]
		hs := HistogramSnapshot{
			Name:   n,
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
			Bounds: append([]int64(nil), h.bounds...),
			Counts: h.BucketCounts(),
		}
		// Quantiles derive from the copied counts, so the snapshot stays
		// self-consistent even if observations race the copy.
		hs.P50 = hs.Quantile(0.50)
		hs.P95 = hs.Quantile(0.95)
		hs.P99 = hs.Quantile(0.99)
		s.Histograms = append(s.Histograms, hs)
	}
	return s
}

// WriteJSON writes the run's metrics as an indented JSON snapshot.
func (r *Run) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Snapshot()); err != nil {
		return fmt.Errorf("obs: encoding metrics snapshot: %w", err)
	}
	return nil
}
