package scenario

import "fmt"

// AssertionError is the typed failure every unmet assertion surfaces: the
// assertion's kind and declaring line, and what the run actually measured.
// The CLI exits non-zero on it, naming the assertion.
type AssertionError struct {
	Scenario string
	Kind     string
	Line     int
	Detail   string
}

// Error names the failed assertion and the measured reality.
func (e *AssertionError) Error() string {
	return fmt.Sprintf("scenario %s: assertion %s failed (line %d): %s",
		e.Scenario, e.Kind, e.Line, e.Detail)
}

// Run executes the scenario and checks every assertion against the
// outcome. A scenario that fails a run-level invariant (unexpected OOM or
// abort) or any declared assertion returns the outcome alongside a
// *AssertionError.
func Run(sc *Scenario) (*Outcome, error) {
	out, err := Execute(sc)
	if err != nil {
		return nil, err
	}

	expectsOOM, expectsAbort := false, false
	for _, a := range sc.Assertions {
		k := kindOf(a.Kind) // Execute validated: every kind has its row
		expectsOOM, expectsAbort = expectsOOM || k.oom, expectsAbort || k.abort
	}
	// Run-level invariants: a failure nobody declared fails the scenario
	// even with no assertions at all.
	if out.OOM && !expectsOOM {
		return out, &AssertionError{Scenario: sc.Name, Kind: "unexpected-oom", Line: 1,
			Detail: out.FailMsg}
	}
	if out.Aborted && !expectsAbort {
		return out, &AssertionError{Scenario: sc.Name, Kind: "unexpected-abort", Line: 1,
			Detail: out.FailMsg}
	}

	for _, a := range sc.Assertions {
		if err := checkAssertion(sc, a, out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// checkAssertion evaluates one assertion (of a kind Validate passed)
// against the outcome through its kind's row. A kind that needs the serving
// phase fails here, once, when training ended the run before it.
func checkAssertion(sc *Scenario, a Assertion, out *Outcome) error {
	detail, k := "", kindOf(a.Kind)
	switch {
	case k.on&hasServe != 0 && out.Serve == nil:
		detail = "no serving phase ran"
	case k.measure == nil:
		detail = k.check(a, out, func() (*Outcome, error) { return Execute(sc) })
	default:
		got, ok := k.measure(a, out)
		op, bad := "<=", got > a.Value
		if k.floor {
			op, bad = ">=", got < a.Value
		}
		if !ok {
			detail = k.absent
		} else if bad {
			detail = fmt.Sprintf("%s "+k.verb+", want %s %g", k.doc, got, op, a.Value)
		}
	}
	if detail == "" {
		return nil
	}
	return &AssertionError{Scenario: sc.Name, Kind: a.Kind, Line: a.Line, Detail: detail}
}

// meanEpochSeconds returns the run's mean kept-epoch time: per-epoch data
// when the plane records it, the elastic useful-time average otherwise.
func meanEpochSeconds(out *Outcome) float64 {
	if len(out.EpochSeconds) > 0 {
		sum := 0.0
		for _, s := range out.EpochSeconds {
			sum += s
		}
		return sum / float64(len(out.EpochSeconds))
	}
	if out.CompletedEpochs > 0 {
		return out.UsefulSeconds / float64(out.CompletedEpochs)
	}
	return 0
}

// lookupMetric resolves an obs metric by name: counters and gauges by
// value, histograms by count.
func lookupMetric(out *Outcome, name string) (float64, bool) {
	for _, c := range out.Metrics.Counters {
		if c.Name == name {
			return float64(c.Value), true
		}
	}
	for _, g := range out.Metrics.Gauges {
		if g.Name == name {
			return float64(g.Value), true
		}
	}
	for _, h := range out.Metrics.Histograms {
		if h.Name == name {
			return float64(h.Count), true
		}
	}
	return 0, false
}
