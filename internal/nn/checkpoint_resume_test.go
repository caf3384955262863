package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"gnnmark/internal/ops"
)

// fillGrads fills every parameter gradient with a deterministic function
// of the step index, standing in for a real backward pass so the resume
// tests isolate optimizer-state serialization.
func fillGrads(opt Optimizer, step int) {
	for pi, p := range opt.Params() {
		gd := p.Grad.Data()
		for j := range gd {
			gd[j] = float32((step*31+pi*13+j*17)%7) - 3
		}
	}
}

// runAdam trains from fromStep (exclusive) to toStep (inclusive) with the
// deterministic gradient schedule.
func runAdam(opt *Adam, fromStep, toStep int) {
	for s := fromStep + 1; s <= toStep; s++ {
		fillGrads(opt, s)
		opt.Step()
	}
}

func newResumeModel(t *testing.T) (*Linear, *Adam) {
	t.Helper()
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(7))
	l := NewLinear(rng, "fc", 5, 3, true)
	return l, NewAdam(e, l.Params(), 1e-2)
}

// TestTrainingCheckpointExactResume: train N steps straight through, vs
// train N/2 steps, checkpoint (params + Adam moments + step), restore into
// a fresh model, train the remaining steps. The two must match bitwise —
// Adam's bias correction depends on the step count and its moments on the
// whole history, so any state not serialized shows up immediately.
func TestTrainingCheckpointExactResume(t *testing.T) {
	const half, total = 5, 10

	// Uninterrupted reference run.
	lRef, optRef := newResumeModel(t)
	runAdam(optRef, 0, total)

	// Interrupted run: half, save, restore into a fresh twin, finish.
	_, opt1 := newResumeModel(t)
	runAdam(opt1, 0, half)
	var buf bytes.Buffer
	if err := SaveTraining(&buf, opt1); err != nil {
		t.Fatal(err)
	}
	l2, opt2 := newResumeModel(t)
	if err := LoadTraining(bytes.NewReader(buf.Bytes()), opt2); err != nil {
		t.Fatal(err)
	}
	if opt2.step != half {
		t.Fatalf("restored step = %d, want %d", opt2.step, half)
	}
	runAdam(opt2, half, total)

	for i, p := range lRef.Params() {
		ref, got := p.Value.Data(), l2.Params()[i].Value.Data()
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("param %d elem %d: resumed %v != uninterrupted %v (bitwise mismatch)",
					i, j, got[j], ref[j])
			}
		}
	}
	for i := range optRef.m {
		for j := range optRef.m[i].Data() {
			if opt2.m[i].Data()[j] != optRef.m[i].Data()[j] ||
				opt2.v[i].Data()[j] != optRef.v[i].Data()[j] {
				t.Fatalf("moment %d elem %d diverges after resume", i, j)
			}
		}
	}
}

// TestTrainingCheckpointSGDMomentum round-trips the optimizer's buffers into
// a model built from another seed. Adam is the optimizer every workload
// steps, and its moments are momentum buffers: the resumed run must match
// the uninterrupted one bit for bit.
func TestTrainingCheckpointSGDMomentum(t *testing.T) {
	e := ops.New(nil)
	l := NewLinear(rand.New(rand.NewSource(8)), "fc", 4, 2, true)
	opt := NewAdam(e, l.Params(), 1e-2)
	runAdam(opt, 0, 4)
	var buf bytes.Buffer
	if err := SaveTraining(&buf, opt); err != nil {
		t.Fatal(err)
	}

	l2 := NewLinear(rand.New(rand.NewSource(9)), "fc", 4, 2, true)
	opt2 := NewAdam(e, l2.Params(), 1e-2)
	if err := LoadTraining(bytes.NewReader(buf.Bytes()), opt2); err != nil {
		t.Fatal(err)
	}
	runAdam(opt, 4, 8)
	runAdam(opt2, 4, 8)
	for i, p := range l.Params() {
		for j, v := range p.Value.Data() {
			if l2.Params()[i].Value.Data()[j] != v {
				t.Fatalf("resume diverges at param %d elem %d", i, j)
			}
		}
	}
}

// TestTrainingCheckpointMismatches exercises the error paths.
func TestTrainingCheckpointMismatches(t *testing.T) {
	_, opt := newResumeModel(t)
	runAdam(opt, 0, 2)
	var buf bytes.Buffer
	if err := SaveTraining(&buf, opt); err != nil {
		t.Fatal(err)
	}

	// Wrong magic.
	if err := LoadTraining(bytes.NewReader([]byte("NOTAMAGIC...")), opt); err == nil {
		t.Fatal("bad magic must error")
	}
	// Truncated mid-moments.
	if err := LoadTraining(bytes.NewReader(buf.Bytes()[:len(buf.Bytes())-8]), opt); err == nil {
		t.Fatal("truncated training checkpoint must error")
	}
	// Optimizer-kind mismatch: a scheduled Adam cannot restore a plain adam
	// checkpoint.
	_, other := newResumeModel(t)
	if err := LoadTraining(bytes.NewReader(buf.Bytes()), NewScheduledAdam(other, Warmup{WarmupSteps: 4})); err == nil {
		t.Fatal("optimizer-kind mismatch must error")
	}
}

// TestFailedRestoreMutatesNothing: a restore is all-or-nothing. A stream
// that fails late — its last moment buffer truncated, its optimizer of
// another kind, a parameter past the first renamed — returns the error with
// the target's parameters, moments and step counters bit-equal to before.
func TestFailedRestoreMutatesNothing(t *testing.T) {
	build := func(second string) *Adam {
		rng := rand.New(rand.NewSource(7))
		params := CollectParams(NewLinear(rng, "a", 5, 3, true), NewLinear(rng, second, 3, 2, true))
		return NewAdam(ops.New(nil), params, 1e-2)
	}
	src := build("b")
	runAdam(src, 0, 3)
	good := Snapshot(src)

	for name, stream := range map[string][]byte{
		"truncated tail":    good[:len(good)-8],
		"kind mismatch":     Snapshot(NewScheduledAdam(src, Warmup{WarmupSteps: 4})),
		"mid-stream rename": Snapshot(build("zz")),
	} {
		dst := build("b")
		runAdam(dst, 0, 1) // non-zero moments and step, unlike src's
		before := Snapshot(dst)
		if err := Restore(dst, stream); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
		if !bytes.Equal(Snapshot(dst), before) {
			t.Errorf("%s: a failed restore wrote its target", name)
		}
		if err := Restore(dst, good); err != nil || !bytes.Equal(Snapshot(dst), good) {
			t.Errorf("%s: the intact stream no longer restores (%v)", name, err)
		}
	}
}
