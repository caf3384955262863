package scenario

import (
	"errors"
	"strings"
	"testing"
)

// mustParse parses src or fails the test.
func mustParse(t *testing.T, src string) *Scenario {
	t.Helper()
	sc, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return sc
}

// The single-device base most executor tests perturb: one short ARGA run
// at the fast sampling tier.
const singleBase = `scenario: exec-single
seed: 3
fleet:
  nodes:
    - preset: v100
workload:
  key: ARGA
  dataset: cora
  epochs: 2
  warps: 64
`

func TestExecuteSingleDeterministic(t *testing.T) {
	sc := mustParse(t, singleBase)
	a, err := Execute(sc)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if a.Plane != "single" || a.World != 1 {
		t.Fatalf("plane/world: %s/%d", a.Plane, a.World)
	}
	if a.CompletedEpochs != 2 || len(a.Losses) != 2 || len(a.EpochSeconds) != 2 {
		t.Fatalf("epochs: completed=%d losses=%d seconds=%d", a.CompletedEpochs, len(a.Losses), len(a.EpochSeconds))
	}
	if a.TotalSeconds <= 0 || a.PeakBytes <= 0 {
		t.Fatalf("totals: %gs, %d bytes", a.TotalSeconds, a.PeakBytes)
	}
	b, err := Execute(sc)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("digests differ across reruns:\n  %s\n  %s", a.Digest, b.Digest)
	}
}

// TestGoLiteralRunsAsItsText is the generator's precondition: one scenario
// written twice — as text and as a Go literal carrying only its required
// fields, no seed, no plane, no lines — validates the same and runs to the
// same digest, because every default is applied in resolve, none in the
// parser.
func TestGoLiteralRunsAsItsText(t *testing.T) {
	text := mustParse(t, `scenario: twice
fleet:
  nodes:
    - preset: v100
workload:
  key: ARGA
  dataset: cora
  epochs: 1
  warps: 64
events:
  - type: thermal-throttle
    factor: 2
assertions:
  - kind: completed-epochs-min
    value: 1
`)
	literal := &Scenario{
		Name:       "twice",
		Fleet:      Fleet{Nodes: []FleetNode{{Preset: "v100"}}},
		Workload:   WorkloadSpec{Key: "ARGA", Dataset: "cora", Epochs: 1, Warps: 64},
		Events:     []EventSpec{{Type: "thermal-throttle", Factor: 2}},
		Assertions: []Assertion{{Kind: "completed-epochs-min", Value: 1}},
	}
	if errText, errLit := text.Validate(), literal.Validate(); errText != nil || errLit != nil {
		t.Fatalf("Validate: text %v, literal %v", errText, errLit)
	}
	a, err := Run(text)
	if err != nil {
		t.Fatalf("text: %v", err)
	}
	b, err := Run(literal)
	if err != nil {
		t.Fatalf("literal: %v", err)
	}
	if a.Digest != b.Digest || a.Seed != defaultSeed || b.Seed != defaultSeed {
		t.Fatalf("text ran to %s (seed %d), literal to %s (seed %d)", a.Digest, a.Seed, b.Digest, b.Seed)
	}
	// A broken literal is refused like broken text, at line 1 for want of one.
	literal.Assertions[0].Text = "ignored"
	var pe *ParseError
	if err := literal.Validate(); !errors.As(err, &pe) || pe.Line != 1 {
		t.Fatalf("literal with an operand its kind does not read: %v", err)
	}
}

func TestExecuteThermalThrottleSlowsRun(t *testing.T) {
	healthy, err := Execute(mustParse(t, singleBase))
	if err != nil {
		t.Fatalf("healthy: %v", err)
	}
	throttled, err := Execute(mustParse(t, singleBase+`events:
  - type: thermal-throttle
    slot: 0
    at: 0
    factor: 3
`))
	if err != nil {
		t.Fatalf("throttled: %v", err)
	}
	if throttled.TotalSeconds <= healthy.TotalSeconds {
		t.Fatalf("throttle did not slow the run: %gs vs %gs", throttled.TotalSeconds, healthy.TotalSeconds)
	}
	// Degraded events shape timing only, never numerics.
	for i := range healthy.Losses {
		if healthy.Losses[i] != throttled.Losses[i] {
			t.Fatalf("epoch %d loss changed under throttle: %v vs %v", i, healthy.Losses[i], throttled.Losses[i])
		}
	}
}

func TestExecuteSingleFatalAborts(t *testing.T) {
	out, err := Execute(mustParse(t, singleBase+`events:
  - type: xid
    slot: 0
    at: 0.000001
    msg: "fell off the bus"
`))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !out.Aborted || out.OOM {
		t.Fatalf("want abort, got %+v", out)
	}
	for _, want := range []string{"xid 79", "fell off the bus"} {
		if !strings.Contains(out.FailMsg, want) {
			t.Fatalf("abort %q does not mention %q", out.FailMsg, want)
		}
	}
}

func TestExecuteOOM(t *testing.T) {
	out, err := Execute(mustParse(t, `scenario: oom
fleet:
  nodes:
    - preset: v100
      hbm-gb: 0.001
workload:
  key: ARGA
  dataset: cora
  epochs: 1
  warps: 64
`))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !out.OOM {
		t.Fatalf("want OOM, got %+v", out)
	}
	if !strings.Contains(out.FailMsg, "OOM") {
		t.Fatalf("OOM message %q", out.FailMsg)
	}
}

// TestExecuteOOMOnEveryFleet: a simulated OOM is classified in one place
// (failOutcome), so expect-oom means the same thing whether the device that
// ran out was alone, a DDP replica, or a partition rank — bare or wrapped in
// an exec.RankError — and the failing run replays to the same digest.
func TestExecuteOOMOnEveryFleet(t *testing.T) {
	for _, tc := range []struct{ plane, gpus, parallelism string }{
		{"single", "1", "ddp"},
		{"ddp", "2", "ddp"},
		{"partitioned", "2", "partitioned"},
	} {
		t.Run(tc.plane, func(t *testing.T) {
			src := `scenario: oom-` + tc.plane + `
fleet:
  nodes:
    - preset: v100
      gpus: ` + tc.gpus + `
      hbm-gb: 0.001
workload:
  key: ARGA
  dataset: cora
  parallelism: ` + tc.parallelism + `
  epochs: 1
  warps: 64
assertions:
  - kind: expect-oom
  - kind: rerun-digest
`
			out, err := Run(mustParse(t, src))
			if err != nil {
				t.Fatalf("expect-oom + rerun-digest did not pass: %v", err)
			}
			if out.Plane != tc.plane {
				t.Fatalf("ran on plane %q, want %q", out.Plane, tc.plane)
			}
			if !out.OOM || out.Aborted {
				t.Fatalf("want OOM and not aborted, got OOM=%v Aborted=%v: %s", out.OOM, out.Aborted, out.FailMsg)
			}
			if !strings.Contains(out.FailMsg, "simulated device OOM in kernel") {
				t.Fatalf("OOM message %q names no kernel", out.FailMsg)
			}
		})
	}
}

func TestExecuteLoaderKill(t *testing.T) {
	src := singleBase + `events:
  - type: loader-kill
    slot: 0
    at: 0
`
	sc := mustParse(t, strings.Replace(src, "key: ARGA", "key: ARGA\n  pipeline-depth: 2\n  loader-workers: 2", 1))
	a, err := Execute(sc)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if a.CompletedEpochs != 2 {
		t.Fatalf("completed %d epochs, want 2", a.CompletedEpochs)
	}
	b, err := Execute(sc)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("loader-kill run is nondeterministic:\n  %s\n  %s", a.Digest, b.Digest)
	}
}

// The heterogeneous elastic base: a V100 and an A100 under DDP with one
// mid-training replica loss.
const elasticBase = `scenario: exec-elastic
seed: 5
fleet:
  nodes:
    - preset: v100
    - preset: a100
workload:
  key: ARGA
  dataset: cora
  parallelism: ddp
  epochs: 2
  warps: 64
events:
  - type: replica-loss
    slot: 1
    at: 0.0005
    msg: "preempted"
`

func TestExecuteElasticRecovery(t *testing.T) {
	sc := mustParse(t, elasticBase)
	a, err := Execute(sc)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if a.Plane != "ddp" || a.World != 2 {
		t.Fatalf("plane/world: %s/%d", a.Plane, a.World)
	}
	if a.Aborted || a.OOM {
		t.Fatalf("run failed: %s", a.FailMsg)
	}
	if a.Recoveries < 1 {
		t.Fatalf("no recovery happened (schedule missed?): %+v", a)
	}
	if len(a.Survivors) != 1 || a.Survivors[0] != 0 {
		t.Fatalf("survivors %v, want [0]", a.Survivors)
	}
	if a.CompletedEpochs != 2 || a.Goodput <= 0 || a.Goodput >= 1 {
		t.Fatalf("accounting: completed=%d goodput=%g", a.CompletedEpochs, a.Goodput)
	}
	b, err := Execute(sc)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("elastic run is nondeterministic:\n  %s\n  %s", a.Digest, b.Digest)
	}
}

func TestExecutePartitionedDegrade(t *testing.T) {
	src := `scenario: exec-part
seed: 2
fleet:
  nodes:
    - preset: v100
      gpus: 2
workload:
  key: ARGA
  dataset: cora
  parallelism: partitioned
  epochs: 1
  warps: 64
`
	healthy, err := Execute(mustParse(t, src))
	if err != nil {
		t.Fatalf("healthy: %v", err)
	}
	if healthy.Plane != "partitioned" || healthy.CompletedEpochs != 1 {
		t.Fatalf("healthy: %+v", healthy)
	}
	degraded, err := Execute(mustParse(t, src+`events:
  - type: nvlink-degrade
    slot: 0
    at: 0
    factor: 8
`))
	if err != nil {
		t.Fatalf("degraded: %v", err)
	}
	if degraded.TotalSeconds <= healthy.TotalSeconds {
		t.Fatalf("link degrade did not slow the run: %gs vs %gs", degraded.TotalSeconds, healthy.TotalSeconds)
	}
	rerun, err := Execute(mustParse(t, src+`events:
  - type: nvlink-degrade
    slot: 0
    at: 0
    factor: 8
`))
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if rerun.Digest != degraded.Digest {
		t.Fatalf("partitioned run is nondeterministic")
	}
}

func TestExecuteServePhase(t *testing.T) {
	sc := mustParse(t, `scenario: exec-serve
seed: 11
fleet:
  nodes:
    - preset: v100
workload:
  key: ARGA
  dataset: cora
  epochs: 1
  warps: 64
events:
  - type: serve-burst
    at-frac: 0.25
    duration-frac: 0.25
    factor: 4
serve:
  replicas: 2
  max-batch: 4
  cache-rows: 256
  load-factor: 2
  duration-factor: 60
`)
	a, err := Execute(sc)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if a.Serve == nil {
		t.Fatal("no serving stats")
	}
	if a.Serve.Arrived == 0 || a.Serve.Completed == 0 {
		t.Fatalf("no traffic served: %+v", a.Serve)
	}
	if a.ServeBatchOneSeconds <= 0 {
		t.Fatalf("calibration d1 = %g", a.ServeBatchOneSeconds)
	}
	b, err := Execute(sc)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("serving run is nondeterministic:\n  %s\n  %s", a.Digest, b.Digest)
	}
}

func TestRunFlagsUnexpectedFailures(t *testing.T) {
	// An aborting run with no expect-abort fails loudly even without any
	// declared assertions.
	sc := mustParse(t, singleBase+`events:
  - type: ecc-dbe
    slot: 0
    at: 0.000001
`)
	_, err := Run(sc)
	var ae *AssertionError
	if !errors.As(err, &ae) || ae.Kind != "unexpected-abort" {
		t.Fatalf("want unexpected-abort AssertionError, got %v", err)
	}
	// The same run passes once the abort is declared and named.
	sc2 := mustParse(t, singleBase+`events:
  - type: ecc-dbe
    slot: 0
    at: 0.000001
assertions:
  - kind: expect-abort
    text: "ecc-dbe"
`)
	if _, err := Run(sc2); err != nil {
		t.Fatalf("declared abort still failed: %v", err)
	}
}
