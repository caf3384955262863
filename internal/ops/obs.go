package ops

import (
	"fmt"
	"sort"
	"strings"

	"gnnmark/internal/gpu"
	"gnnmark/internal/obs"
)

// metrics are an engine's handles in its run, all nil without one: kernel
// and H2D-byte counts; the host interval attributed to each launch, in all
// and per gpu.OpClass (indexed by class: the hot path builds no name); and
// the pipeline's simulated per-stream time and raw-vs-encoded H2D bytes.
type metrics struct {
	kernels, h2dBytes                                     *obs.Counter
	opHost                                                *obs.Histogram
	class                                                 [gpu.NumOpClasses]*obs.Histogram
	computeBusy, copyBusy, hiddenCopy, h2dRaw, h2dEncoded *obs.Counter
}

func newMetrics(run *obs.Run) metrics {
	m := metrics{
		kernels:     run.Counter("ops.kernels_total"),
		h2dBytes:    run.Counter("ops.h2d_bytes_total"),
		opHost:      run.Histogram("ops.host_nanos", obs.DurationBuckets()),
		computeBusy: run.Counter("stream.compute_busy_simnanos"),
		copyBusy:    run.Counter("stream.copy_busy_simnanos"),
		hiddenCopy:  run.Counter("stream.hidden_copy_simnanos"),
		h2dRaw:      run.Counter("h2d.raw_bytes_total"),
		h2dEncoded:  run.Counter("h2d.encoded_bytes_total"),
	}
	for c := gpu.OpClass(0); run != nil && int(c) < gpu.NumOpClasses; c++ { // no names built for no run
		m.class[c] = run.Histogram("ops.class."+c.String()+".host_nanos", obs.DurationBuckets())
	}
	return m
}

// opClasses reads the cumulative per-class attributed host time.
func (m metrics) opClasses() OpClassBreakdown {
	var b OpClassBreakdown
	for i, h := range m.class {
		b.Nanos[i] = h.Sum()
	}
	return b
}

// Obs returns the run the engine records into (nil: none).
func (e *Engine) Obs() *obs.Run { return e.run }

// Track returns the engine's host span track (nil when the engine records
// into no run). models.Env nests the phase spans on it so per-op spans
// parent under their phase.
func (e *Engine) Track() *obs.Track { return e.track }

// recordLaunch attributes the host interval since the previous op
// boundary to the kernel just launched: a span named after the kernel in
// its op-class category, plus the per-class attribution histogram.
func (e *Engine) recordLaunch(name string, class gpu.OpClass) {
	e.m.kernels.Inc()
	if e.track == nil {
		return
	}
	now := obs.Nanos()
	d := now - e.opMark
	e.track.Record(name, class.String(), e.opMark, d)
	e.m.opHost.Observe(d)
	if int(class) < len(e.m.class) {
		e.m.class[class].Observe(d)
	}
	e.opMark = now
}

// recordH2D attributes a host-to-device copy's host time (the sparsity
// scan and transfer modeling) to the data_load category and the Transfer
// op class.
func (e *Engine) recordH2D(name string, start int64, bytes int64) {
	e.m.h2dBytes.Add(bytes)
	if e.track == nil {
		return
	}
	now := obs.Nanos()
	e.track.Record(name, "data_load", start, now-start)
	e.m.class[gpu.OpTransfer].Observe(now - start)
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
// interval (typically one epoch), or cumulative over a run as
// Engine.OpClasses reads it.
type OpClassBreakdown struct {
	Nanos [gpu.NumOpClasses]int64
}

// OpClasses snapshots the cumulative per-class attributed host time of the
// engine's run (every engine of the run, under DDP): zeros without a run.
func (e *Engine) OpClasses() OpClassBreakdown { return e.m.opClasses() }

// CaptureOpClasses is OpClasses over the process-global run, kept for the
// frozen e2ebench harness; nothing under cmd/ or internal/ calls it.
func CaptureOpClasses() OpClassBreakdown { return newMetrics(obs.Process()).opClasses() }

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
