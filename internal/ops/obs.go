package ops

import (
	"fmt"
	"sort"
	"strings"

	"gnnmark/internal/gpu"
	"gnnmark/internal/obs"
)

// Host-observability handles for the op engine. Handles are always valid;
// recording no-ops (without allocating) until obs.Enable, so the hot op
// path carries no conditional wiring.
var (
	// obsKernelsTotal counts kernels launched on the simulated device.
	obsKernelsTotal = obs.GetCounter("ops.kernels_total")
	// obsOpHostNanos is the host wall-clock interval attributed to each
	// launched kernel (numerics + lowering since the previous launch).
	obsOpHostNanos = obs.GetHistogram("ops.host_nanos", obs.DurationBuckets())
	// obsH2DBytesTotal counts modeled host-to-device payload bytes.
	obsH2DBytesTotal = obs.GetCounter("ops.h2d_bytes_total")
)

// obsOpClassNanos attributes host wall-clock time to the GNNMark op-class
// taxonomy: one histogram per gpu.OpClass, indexed directly by class so the
// hot path never builds a metric name. The histograms live in the default
// registry (ops.class.<Name>.host_nanos), so both exporters pick them up
// with no extra wiring, and recording is alloc-free and self-gated.
var obsOpClassNanos = func() (h [gpu.NumOpClasses]*obs.Histogram) {
	for _, c := range gpu.AllOpClasses() {
		h[c] = obs.GetHistogram("ops.class."+c.String()+".host_nanos", obs.DurationBuckets())
	}
	return h
}()

// Track returns the engine's host span track (nil while observability is
// disabled or when the engine predates obs.Enable). models.Env nests the
// phase spans on it so per-op spans parent under their phase.
func (e *Engine) Track() *obs.Track { return e.track }

// recordLaunch attributes the host interval since the previous op
// boundary to the kernel just launched: a span named after the kernel in
// its op-class category, plus the per-class attribution histogram.
func (e *Engine) recordLaunch(name string, class gpu.OpClass) {
	obsKernelsTotal.Inc()
	if e.track == nil {
		return
	}
	now := obs.Nanos()
	d := now - e.opMark
	e.track.Record(name, class.String(), e.opMark, d)
	obsOpHostNanos.Observe(d)
	if int(class) < len(obsOpClassNanos) {
		obsOpClassNanos[class].Observe(d)
	}
	e.opMark = now
}

// recordH2D attributes a host-to-device copy's host time (the sparsity
// scan and transfer modeling) to the data_load category and the Transfer
// op class.
func (e *Engine) recordH2D(name string, start int64, bytes int64) {
	obsH2DBytesTotal.Add(bytes)
	if e.track == nil {
		return
	}
	now := obs.Nanos()
	e.track.Record(name, "data_load", start, now-start)
	obsOpClassNanos[gpu.OpTransfer].Observe(now - start)
	e.opMark = now
}

// MarkHostBoundary resets the per-op attribution cursor. Phase
// transitions (models.Env) call it so host time spent outside the op
// stream — batch bookkeeping, gradient flattening — is not charged to
// the next kernel's span.
func (e *Engine) MarkHostBoundary() {
	if e.track != nil {
		e.opMark = obs.Nanos()
	}
}

// OpClassBreakdown is attributed host nanoseconds per gpu.OpClass over some
// interval (typically one epoch), or cumulative since start-up as
// CaptureOpClasses reads it.
type OpClassBreakdown struct {
	Nanos [gpu.NumOpClasses]int64
}

// CaptureOpClasses snapshots the cumulative per-class attributed host time.
// Returns zeros while observability is disabled.
func CaptureOpClasses() OpClassBreakdown {
	var b OpClassBreakdown
	for i := range b.Nanos {
		b.Nanos[i] = obsOpClassNanos[i].Sum()
	}
	return b
}

// Delta returns the per-class host time accumulated between the earlier
// capture prev and the later capture b: end.Delta(start), the opposite
// order of obs.PhaseBreakdown.Delta.
func (b OpClassBreakdown) Delta(prev OpClassBreakdown) OpClassBreakdown {
	for i := range b.Nanos {
		b.Nanos[i] -= prev.Nanos[i]
	}
	return b
}

// Total returns the host time attributed to any op class.
func (b OpClassBreakdown) Total() int64 {
	var t int64
	for _, n := range b.Nanos {
		t += n
	}
	return t
}

// Coverage returns the fraction of hostNanos the op-class attribution
// accounts for (0 when hostNanos is 0). Engine host time not inside an
// op-to-op interval — phase setup, boundary bookkeeping — is the gap.
func (b OpClassBreakdown) Coverage(hostNanos int64) float64 {
	if hostNanos <= 0 {
		return 0
	}
	return float64(b.Total()) / float64(hostNanos)
}

// String renders the nonzero classes sorted by descending share, e.g.
// "GEMM 61.2% | SpMM 23.4% | ElementWise 9.1%". Empty when nothing was
// attributed.
func (b OpClassBreakdown) String() string {
	total := b.Total()
	if total <= 0 {
		return ""
	}
	type entry struct {
		class gpu.OpClass
		ns    int64
	}
	var entries []entry
	for i, n := range b.Nanos {
		if n > 0 {
			entries = append(entries, entry{gpu.OpClass(i), n})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].ns != entries[j].ns {
			return entries[i].ns > entries[j].ns
		}
		return entries[i].class < entries[j].class
	})
	var sb strings.Builder
	for i, e := range entries {
		if i > 0 {
			sb.WriteString(" | ")
		}
		fmt.Fprintf(&sb, "%s %.1f%%", e.class, 100*float64(e.ns)/float64(total))
	}
	return sb.String()
}

// Summary renders the breakdown plus the attributed share of hostNanos:
// "GEMM 61.2% | ... (98.7% of host time attributed)".
func (b OpClassBreakdown) Summary(hostNanos int64) string {
	s := b.String()
	if s == "" {
		return "no op-class attribution recorded"
	}
	if hostNanos > 0 {
		s += fmt.Sprintf(" (%.1f%% of host time attributed)", 100*b.Coverage(hostNanos))
	}
	return s
}
