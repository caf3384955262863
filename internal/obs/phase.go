package obs

import (
	"fmt"
	"strings"
)

// The training-phase taxonomy: where host wall-clock goes inside one
// iteration. models.Env drives the transitions; CapturePhases/Delta turn
// the accumulated counters into per-epoch breakdowns.
const (
	PhaseDataLoad  = "data_load"
	PhaseForward   = "forward"
	PhaseBackward  = "backward"
	PhaseOptimizer = "optimizer"
	PhaseAllreduce = "allreduce"
)

// CatPhase is the span category used for phase-level spans.
const CatPhase = "phase"

// PhaseBreakdown is the host wall-clock split of one epoch (or any
// bracketed interval): how much of WallNanos each phase accounts for. As
// a PhaseMeter reads it, it is a point-in-time reading instead: the wall
// clock and the cumulative phase counters; two readings bracket an epoch.
type PhaseBreakdown struct {
	WallNanos int64
	DataLoad  int64
	Forward   int64
	Backward  int64
	Optimizer int64
	Allreduce int64
}

// capturePhases reads the run's phase counters and the wall clock.
func (r *Run) capturePhases() PhaseBreakdown {
	return PhaseBreakdown{
		WallNanos: Nanos(),
		DataLoad:  r.Phase(PhaseDataLoad).Value(),
		Forward:   r.Phase(PhaseForward).Value(),
		Backward:  r.Phase(PhaseBackward).Value(),
		Optimizer: r.Phase(PhaseOptimizer).Value(),
		Allreduce: r.Phase(PhaseAllreduce).Value(),
	}
}

// Delta returns the breakdown of the interval between reading b and the
// later reading end: start.Delta(end), the opposite order of
// ops.OpClassBreakdown.Delta.
func (b PhaseBreakdown) Delta(end PhaseBreakdown) PhaseBreakdown {
	return PhaseBreakdown{
		WallNanos: end.WallNanos - b.WallNanos,
		DataLoad:  end.DataLoad - b.DataLoad,
		Forward:   end.Forward - b.Forward,
		Backward:  end.Backward - b.Backward,
		Optimizer: end.Optimizer - b.Optimizer,
		Allreduce: end.Allreduce - b.Allreduce,
	}
}

// Scale divides every phase total by div — used by DDP runs, where the
// counters aggregate over `world` concurrent replicas but the wall clock
// elapses once, to report the mean per-replica split.
func (b PhaseBreakdown) Scale(div int) PhaseBreakdown {
	if div <= 1 {
		return b
	}
	d := int64(div)
	b.DataLoad /= d
	b.Forward /= d
	b.Backward /= d
	b.Optimizer /= d
	b.Allreduce /= d
	return b
}

// PhaseNanos returns the sum of all phase totals.
func (b PhaseBreakdown) PhaseNanos() int64 {
	return b.DataLoad + b.Forward + b.Backward + b.Optimizer + b.Allreduce
}

// Coverage returns the fraction of the wall interval the phases account
// for (1.0 = the phase spans tile the epoch exactly).
func (b PhaseBreakdown) Coverage() float64 {
	if b.WallNanos <= 0 {
		return 0
	}
	return float64(b.PhaseNanos()) / float64(b.WallNanos)
}

// String renders the per-epoch summary line: wall time, the percentage
// split across phases (allreduce only when present), and coverage.
func (b PhaseBreakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "wall %s", fmtNanos(b.WallNanos))
	pct := func(name string, v int64) {
		if b.WallNanos > 0 {
			fmt.Fprintf(&sb, "  %s %.1f%%", name, 100*float64(v)/float64(b.WallNanos))
		} else {
			fmt.Fprintf(&sb, "  %s -", name)
		}
	}
	pct("data", b.DataLoad)
	pct("forward", b.Forward)
	pct("backward", b.Backward)
	pct("optimizer", b.Optimizer)
	if b.Allreduce > 0 {
		pct("allreduce", b.Allreduce)
	}
	fmt.Fprintf(&sb, "  (coverage %.1f%%)", 100*b.Coverage())
	return sb.String()
}

// PhaseMeter captures a run's phase-counter deltas per epoch. On a nil run
// it no-ops (ok = false).
type PhaseMeter struct {
	run  *Run
	last PhaseBreakdown
}

// NewPhaseMeter snapshots r's phase counters.
func NewPhaseMeter(r *Run) *PhaseMeter {
	return &PhaseMeter{run: r, last: r.capturePhases()}
}

// Epoch returns the phase breakdown since the previous Epoch call, with
// counter sums divided by div (the per-worker mean for div = world).
func (m *PhaseMeter) Epoch(div int) (PhaseBreakdown, bool) {
	if m.run == nil {
		return PhaseBreakdown{}, false
	}
	cur := m.run.capturePhases()
	b := m.last.Delta(cur).Scale(div)
	m.last = cur
	return b, true
}

// fmtNanos renders a nanosecond count with a human unit.
func fmtNanos(ns int64) string {
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1_000_000:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
