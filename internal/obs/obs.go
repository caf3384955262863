// Package obs is the host-side observability layer of the GNNMark
// reproduction. Where internal/profiler and internal/trace observe the
// *simulated device*, obs observes the *Go runtime that executes the
// numerics*: wall-clock spans (per-op, per-phase, per-replica), a
// registry of counters/gauges/histograms, and exporters (JSON snapshot,
// Prometheus text format, Chrome-trace merge via internal/trace).
//
// The package is zero-dependency (stdlib only) and is designed so that
// instrumented hot paths cost nothing measurable while observability is
// disabled (the default): every metric handle is valid at all times and
// its recording methods are gated on one atomic flag, nil *Track values
// no-op every span call, and none of the disabled paths allocate. Code
// therefore instruments unconditionally:
//
//	var kernels = obs.GetCounter("ops.kernels_total")
//	...
//	kernels.Inc() // no-op (one atomic load) until obs.Enable()
//
// Enable/Disable gate the default registry and span recording globally;
// independent Registry instances (used by tests) carry their own gate.
package obs

import (
	"sync"
	"time"
)

// base anchors the package monotonic clock at process start, so Nanos is
// meaningful even for spans recorded before Enable.
var base = time.Now()

// Nanos returns the current reading of the package monotonic clock:
// nanoseconds since process start. All span timestamps use this clock.
func Nanos() int64 { return int64(time.Since(base)) }

// defaultRegistry is the process-wide metrics registry; it starts disabled.
var defaultRegistry = NewRegistry()

func init() { defaultRegistry.on.Store(false) }

// Default returns the process-wide registry that GetCounter/GetGauge/
// GetHistogram resolve against and that Enable/Disable gate.
func Default() *Registry { return defaultRegistry }

// Enable turns on host observability: metric recording in the default
// registry and span recording on all tracks.
func Enable() { defaultRegistry.on.Store(true) }

// Disable turns host observability back off. Already-recorded data is
// kept until Reset.
func Disable() { defaultRegistry.on.Store(false) }

// Enabled reports whether host observability is on.
func Enabled() bool { return defaultRegistry.on.Load() }

// GetCounter returns (creating on first use) the named counter in the
// default registry. Handles are cheap to cache in package variables.
func GetCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// GetGauge returns (creating on first use) the named gauge in the default
// registry.
func GetGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// GetHistogram returns (creating on first use) the named histogram in the
// default registry. Bounds are fixed at first creation; later callers get
// the existing histogram regardless of the bounds they pass.
func GetHistogram(name string, bounds []int64) *Histogram {
	return defaultRegistry.Histogram(name, bounds)
}

// tracks is the process-wide list of span tracks.
var (
	tracksMu sync.Mutex
	tracks   []*Track
	nextID   int
)

// NewTrack registers a new span track (one logical thread of execution:
// an op engine, a DDP reducer, a worker). It returns nil while
// observability is disabled; all Track methods are nil-safe, so callers
// keep the handle unconditionally.
func NewTrack(name string) *Track {
	if !Enabled() {
		return nil
	}
	tracksMu.Lock()
	defer tracksMu.Unlock()
	nextID++
	t := &Track{ID: nextID, Name: name, limit: defaultTrackLimit}
	tracks = append(tracks, t)
	return t
}

// Tracks snapshots every registered track's recorded spans. Spans still
// open at snapshot time get their duration extended to "now".
func Tracks() []TrackSnapshot {
	tracksMu.Lock()
	list := append([]*Track(nil), tracks...)
	tracksMu.Unlock()
	out := make([]TrackSnapshot, 0, len(list))
	for _, t := range list {
		out = append(out, t.snapshot())
	}
	return out
}

// Reset zeroes every metric in the default registry and discards all
// recorded spans (tracks stay registered and usable). Runs call it after
// workload construction so measurements cover training only.
func Reset() {
	defaultRegistry.Reset()
	tracksMu.Lock()
	list := append([]*Track(nil), tracks...)
	tracksMu.Unlock()
	for _, t := range list {
		t.reset()
	}
}

// DurationBuckets returns the default histogram bounds for nanosecond
// durations: a 1-2-5 ladder from 1µs to 10s.
func DurationBuckets() []int64 {
	var out []int64
	for decade := int64(1_000); decade <= 10_000_000_000; decade *= 10 {
		out = append(out, decade)
		if decade < 10_000_000_000 {
			out = append(out, 2*decade, 5*decade)
		}
	}
	return out
}
