package scenario

import (
	"errors"
	"strings"
	"testing"

	"gnnmark/internal/obs"
	"gnnmark/internal/serve"
)

// failingCases pairs every assertion kind with an outcome that violates
// it. Each must fail loudly: a *AssertionError naming the kind and line.
func failingCases() []struct {
	name string
	a    Assertion
	out  *Outcome
} {
	serveStats := &serve.Stats{QPS: 100, P99: 0.002, Rejected: 9, CacheHits: 1, CacheMisses: 9}
	return []struct {
		name string
		a    Assertion
		out  *Outcome
	}{
		{"digest", Assertion{Kind: "digest", Text: "abcd", Line: 3}, &Outcome{Digest: "ffff"}},
		{"epoch-seconds-max", Assertion{Kind: "epoch-seconds-max", Value: 0.1, Line: 4},
			&Outcome{EpochSeconds: []float64{0.3, 0.5}}},
		{"total-seconds-max", Assertion{Kind: "total-seconds-max", Value: 1, Line: 5},
			&Outcome{TotalSeconds: 2}},
		{"loss-max", Assertion{Kind: "loss-max", Value: 0.5, Line: 6},
			&Outcome{Losses: []float64{0.4, 0.9}}},
		{"loss-max no epochs", Assertion{Kind: "loss-max", Value: 0.5, Line: 6}, &Outcome{}},
		{"completed-epochs-min", Assertion{Kind: "completed-epochs-min", Value: 3, Line: 7},
			&Outcome{CompletedEpochs: 2}},
		{"goodput-min", Assertion{Kind: "goodput-min", Value: 0.9, Line: 8},
			&Outcome{Goodput: 0.5}},
		{"recovery-deadline", Assertion{Kind: "recovery-deadline", Value: 1, Line: 9},
			&Outcome{Recoveries: 2, OverheadSeconds: 10}},
		{"recovery-deadline unmeasured", Assertion{Kind: "recovery-deadline", Value: 1, Line: 9},
			&Outcome{}},
		{"recoveries-min", Assertion{Kind: "recoveries-min", Value: 1, Line: 10}, &Outcome{}},
		{"survivors-min", Assertion{Kind: "survivors-min", Value: 2, Line: 11},
			&Outcome{Survivors: []int{0}}},
		{"metric-max", Assertion{Kind: "metric-max", Metric: "vmem.peak_bytes", Value: 10, Line: 12},
			&Outcome{Metrics: obs.Snapshot{Gauges: []obs.GaugeSnapshot{{Name: "vmem.peak_bytes", Value: 100}}}}},
		{"metric-min", Assertion{Kind: "metric-min", Metric: "vmem.allocs_total", Value: 10, Line: 13},
			&Outcome{Metrics: obs.Snapshot{Counters: []obs.CounterSnapshot{{Name: "vmem.allocs_total", Value: 1}}}}},
		{"metric missing", Assertion{Kind: "metric-max", Metric: "no.such.metric", Value: 10, Line: 14},
			&Outcome{}},
		{"expect-oom", Assertion{Kind: "expect-oom", Line: 15}, &Outcome{}},
		{"expect-abort", Assertion{Kind: "expect-abort", Text: "xid", Line: 16}, &Outcome{}},
		{"expect-abort wrong text", Assertion{Kind: "expect-abort", Text: "xid", Line: 16},
			&Outcome{Aborted: true, FailMsg: "thermal meltdown"}},
		{"serve-qps-min", Assertion{Kind: "serve-qps-min", Value: 1000, Line: 17},
			&Outcome{Serve: serveStats}},
		{"serve-p99-max-us", Assertion{Kind: "serve-p99-max-us", Value: 100, Line: 18},
			&Outcome{Serve: serveStats}},
		{"serve-rejected-max", Assertion{Kind: "serve-rejected-max", Value: 1, Line: 19},
			&Outcome{Serve: serveStats}},
		{"serve-hit-rate-min", Assertion{Kind: "serve-hit-rate-min", Value: 0.5, Line: 20},
			&Outcome{Serve: serveStats}},
		{"serve missing", Assertion{Kind: "serve-qps-min", Value: 1, Line: 21}, &Outcome{}},
	}
}

// TestAssertionKindsFailLoudly checks that every assertion kind, when
// violated, produces a *AssertionError that names the kind and the
// declaring line — the contract the CLI's non-zero exit hangs off.
func TestAssertionKindsFailLoudly(t *testing.T) {
	sc := &Scenario{Name: "unit"}
	for _, tc := range failingCases() {
		t.Run(tc.name, func(t *testing.T) {
			err := checkAssertion(sc, tc.a, tc.out)
			if err == nil {
				t.Fatalf("assertion %s accepted a violating outcome", tc.a.Kind)
			}
			var ae *AssertionError
			if !errors.As(err, &ae) {
				t.Fatalf("error is %T, want *AssertionError: %v", err, err)
			}
			if ae.Kind != tc.a.Kind || ae.Line != tc.a.Line || ae.Scenario != "unit" {
				t.Fatalf("error identity %+v does not match assertion %+v", ae, tc.a)
			}
			if !strings.Contains(err.Error(), tc.a.Kind) {
				t.Fatalf("message %q does not name the assertion", err)
			}
		})
	}
}

// TestAssertionKindsPass drives each kind's satisfied side.
func TestAssertionKindsPass(t *testing.T) {
	sc := &Scenario{Name: "unit"}
	serveStats := &serve.Stats{QPS: 100, P99: 0.0001, Rejected: 0, CacheHits: 9, CacheMisses: 1}
	out := &Outcome{
		Digest:          "abcd",
		EpochSeconds:    []float64{0.1},
		TotalSeconds:    0.1,
		Losses:          []float64{0.2},
		CompletedEpochs: 2,
		Goodput:         0.95,
		Recoveries:      1,
		OverheadSeconds: 0.5,
		Survivors:       []int{0, 1},
		Serve:           serveStats,
		Metrics: obs.Snapshot{
			Gauges: []obs.GaugeSnapshot{{Name: "vmem.peak_bytes", Value: 100}},
		},
	}
	pass := []Assertion{
		{Kind: "digest", Text: "abcd"},
		{Kind: "epoch-seconds-max", Value: 1},
		{Kind: "total-seconds-max", Value: 1},
		{Kind: "loss-max", Value: 0.5},
		{Kind: "completed-epochs-min", Value: 2},
		{Kind: "goodput-min", Value: 0.9},
		{Kind: "recovery-deadline", Value: 1},
		{Kind: "recoveries-min", Value: 1},
		{Kind: "survivors-min", Value: 2},
		{Kind: "metric-max", Metric: "vmem.peak_bytes", Value: 1000},
		{Kind: "metric-min", Metric: "vmem.peak_bytes", Value: 10},
		{Kind: "serve-qps-min", Value: 50},
		{Kind: "serve-p99-max-us", Value: 1000},
		{Kind: "serve-rejected-max", Value: 1},
		{Kind: "serve-hit-rate-min", Value: 0.5},
	}
	for _, a := range pass {
		if err := checkAssertion(sc, a, out); err != nil {
			t.Errorf("assertion %s rejected a satisfying outcome: %v", a.Kind, err)
		}
	}
	failed := &Outcome{OOM: true, Aborted: true, FailMsg: "fault: fatal health event: xid 79"}
	for _, a := range []Assertion{
		{Kind: "expect-oom"},
		{Kind: "expect-abort", Text: "xid 79"},
	} {
		if err := checkAssertion(sc, a, failed); err != nil {
			t.Errorf("assertion %s rejected a satisfying outcome: %v", a.Kind, err)
		}
	}
}

// TestRunRerunDigest exercises the rerun-digest assertion end to end on a
// real (tiny) run: the second execution must reproduce the digest.
func TestRunRerunDigest(t *testing.T) {
	sc := mustParse(t, `scenario: rerun
fleet:
  nodes:
    - preset: h100
workload:
  key: ARGA
  dataset: cora
  epochs: 1
  warps: 64
assertions:
  - kind: rerun-digest
  - kind: completed-epochs-min
    value: 1
`)
	out, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.CompletedEpochs != 1 {
		t.Fatalf("completed %d", out.CompletedEpochs)
	}
}
