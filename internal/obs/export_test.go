package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func exportTestRegistry() *Run {
	r := NewRun()
	r.Counter("ops.kernels_total").Add(42)
	r.Gauge("vmem.live_bytes").Add(1024)
	h := r.Histogram("backend.task_nanos", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	return r
}

func TestWriteJSONRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := exportTestRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(s.Counters) != 1 || s.Counters[0].Name != "ops.kernels_total" || s.Counters[0].Value != 42 {
		t.Fatalf("counters = %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 1024 {
		t.Fatalf("gauges = %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %+v", s.Histograms)
	}
	hs := s.Histograms[0]
	if hs.Count != 3 || hs.Sum != 555 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	if len(hs.Counts) != len(hs.Bounds)+1 {
		t.Fatalf("counts/bounds mismatch: %d vs %d", len(hs.Counts), len(hs.Bounds))
	}
	// 3 observations over bounds [10,100]: the median interpolates halfway
	// into the middle bucket, the tail quantiles clamp at the last bound.
	if hs.P50 != 55 || hs.P95 != 100 || hs.P99 != 100 {
		t.Fatalf("quantiles = p50 %v p95 %v p99 %v, want 55/100/100", hs.P50, hs.P95, hs.P99)
	}
	if got := hs.Quantile(0.5); got != hs.P50 {
		t.Fatalf("snapshot Quantile(0.5) = %v, want %v", got, hs.P50)
	}
}

func TestPhaseBreakdownCoverageAndString(t *testing.T) {
	b := PhaseBreakdown{
		WallNanos: 1_000_000,
		DataLoad:  100_000,
		Forward:   400_000,
		Backward:  300_000,
		Optimizer: 150_000,
	}
	if c := b.Coverage(); c < 0.949 || c > 0.951 {
		t.Fatalf("coverage = %v, want 0.95", c)
	}
	s := b.String()
	if s == "" || !bytes.Contains([]byte(s), []byte("coverage 95.0%")) {
		t.Fatalf("String() = %q", s)
	}
	if bytes.Contains([]byte(s), []byte("allreduce")) {
		t.Fatalf("allreduce rendered with zero time: %q", s)
	}
	scaled := b.Scale(2)
	if scaled.Forward != 200_000 || scaled.WallNanos != 1_000_000 {
		t.Fatalf("Scale: %+v", scaled)
	}
}
