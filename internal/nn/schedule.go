package nn

import "math"

// Warmup ramps linearly from 0 to 1 over WarmupSteps, then decays with the
// inverse square root of the step: the transformer schedule GraphWriter
// trains with.
type Warmup struct {
	WarmupSteps int
}

// Factor returns the learning-rate multiplier for 1-based step number.
func (w Warmup) Factor(step int) float64 {
	ws := w.WarmupSteps
	if ws <= 0 {
		ws = 1
	}
	if step < ws {
		return float64(step) / float64(ws)
	}
	return math.Sqrt(float64(ws)) / math.Sqrt(float64(step))
}

// ScheduledAdam wraps Adam with a warmup learning-rate schedule.
type ScheduledAdam struct {
	*Adam
	Schedule Warmup
	baseLR   float32
	step     int
}

// NewScheduledAdam builds an Adam optimizer whose LR follows schedule.
func NewScheduledAdam(inner *Adam, schedule Warmup) *ScheduledAdam {
	return &ScheduledAdam{Adam: inner, Schedule: schedule, baseLR: inner.LR}
}

// state adds the schedule's own step to the inner Adam's: both must survive
// a restore for bitwise resume.
func (s *ScheduledAdam) state() optState {
	st := s.Adam.state()
	st.kind = "sched-adam"
	st.counters = append(st.counters, &s.step)
	return st
}

// Step implements Optimizer: applies the schedule factor, then updates.
func (s *ScheduledAdam) Step() {
	s.step++
	s.Adam.LR = s.baseLR * float32(s.Schedule.Factor(s.step))
	s.Adam.Step()
}
