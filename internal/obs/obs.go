// Package obs is the host-side observability layer of the GNNMark
// reproduction. Where internal/profiler and internal/trace observe the
// *simulated device*, obs observes the *Go runtime that executes the
// numerics*: wall-clock spans (per-op, per-phase, per-replica), named
// counters/gauges/histograms, and exporters (JSON snapshot, Chrome-trace
// merge via internal/trace).
//
// Everything a run records belongs to that run: a Run owns its metrics by
// name and its span tracks, and every plane resolves its handles from the
// run it is built for (core.RunConfig.Obs), so two runs in one process
// never share a number. A nil *Run is observability off: it hands out nil
// handles, and every method of a nil handle no-ops without allocating.
// Code therefore instruments unconditionally:
//
//	kernels := run.Counter("ops.kernels_total") // nil when run is nil
//	...
//	kernels.Inc() // no-op on a nil handle
//
// The package is zero-dependency (stdlib only).
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// base anchors the package monotonic clock at process start, so span
// timestamps of every run share one origin.
var base = time.Now()

// Nanos returns the current reading of the package monotonic clock:
// nanoseconds since process start. All span timestamps use this clock.
func Nanos() int64 { return int64(time.Since(base)) }

// Run owns one run's host observability: its metrics by name and its span
// tracks. Metric creation takes a lock; recording is lock-free (atomics),
// so handles are safe to share across goroutines and cheap enough for
// per-op hot paths. Every method is safe on a nil *Run, which records
// nothing.
type Run struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	tracks     []*Track
}

// NewRun returns an empty run.
func NewRun() *Run {
	return &Run{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, made on first use (nil on a nil run).
func (r *Run) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return named(r, r.counters, name, func() *Counter { return new(Counter) })
}

// Gauge returns the named gauge, made on first use (nil on a nil run).
func (r *Run) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return named(r, r.gauges, name, func() *Gauge { return new(Gauge) })
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (ascending) on first use. Later calls return the existing
// histogram; the bounds argument is then ignored. Nil on a nil run.
func (r *Run) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	return named(r, r.histograms, name, func() *Histogram {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic("obs: histogram bounds must be strictly ascending: " + name)
			}
		}
		return &Histogram{bounds: append([]int64(nil), bounds...), buckets: make([]atomic.Int64, len(bounds)+1)}
	})
}

// named returns m[name], made by mk under r's lock on first use.
func named[T any](r *Run, m map[string]*T, name string, mk func() *T) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := m[name]
	if v == nil {
		v = mk()
		m[name] = v
	}
	return v
}

// Phase returns the counter of total nanoseconds spent in the named
// training phase ("phase.<name>_nanos"; nil, no name built, on a nil run).
func (r *Run) Phase(phase string) *Counter {
	if r == nil {
		return nil
	}
	return r.Counter("phase." + phase + "_nanos")
}

// Track registers a new span track (one logical thread of execution: an
// op engine, a DDP reducer) in the run. Nil on a nil run; all Track
// methods are nil-safe, so callers keep the handle unconditionally.
func (r *Run) Track(name string) *Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Track{ID: len(r.tracks) + 1, Name: name, limit: defaultTrackLimit}
	r.tracks = append(r.tracks, t)
	return t
}

// Tracks snapshots every track's recorded spans. Spans still open at
// snapshot time get their duration extended to "now".
func (r *Run) Tracks() []TrackSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	list := append([]*Track(nil), r.tracks...)
	r.mu.Unlock()
	out := make([]TrackSnapshot, 0, len(list))
	for _, t := range list {
		out = append(out, t.snapshot())
	}
	return out
}

// reset zeroes every metric and discards all recorded spans, keeping every
// handle and track valid.
func (r *Run) reset() {
	if r == nil {
		return
	}
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
	for _, t := range r.tracks {
		t.reset()
	}
}

// process is the process-global run, kept only for the frozen e2ebench
// harness, which switches it with the five functions below; constructors
// given no run bind it (DESIGN.md §7, TestNoProcessGlobalObs).
var process atomic.Pointer[Run]

// Process returns the process-global run: nil (off) unless Enable was
// called.
func Process() *Run { return process.Load() }

// Enable switches the process-global run on (a fresh one unless it is
// already on).
func Enable() { process.CompareAndSwap(nil, NewRun()) }

// Disable switches the process-global run off.
func Disable() { process.Store(nil) }

// Enabled reports whether the process-global run is on.
func Enabled() bool { return Process() != nil }

// Reset zeroes the process-global run's metrics and spans.
func Reset() { Process().reset() }

// CapturePhases reads the process-global run's phase counters and the
// wall clock.
func CapturePhases() PhaseBreakdown { return Process().capturePhases() }

// DurationBuckets returns the default histogram bounds for nanosecond
// durations: a 1-2-5 ladder from 1µs to 10s, shared (Run.Histogram copies).
func DurationBuckets() []int64 { return durationBuckets }

var durationBuckets = func() (out []int64) {
	for decade := int64(1_000); decade <= 10_000_000_000; decade *= 10 {
		out = append(out, decade)
		if decade < 10_000_000_000 {
			out = append(out, 2*decade, 5*decade)
		}
	}
	return out
}()
