package nn

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gnnmark/internal/ops"
)

// paramsEqual compares two optimizers' parameter values bitwise.
func paramsEqual(a, b Optimizer) bool {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		da, db := pa[i].Value.Data(), pb[i].Value.Data()
		for j := range da {
			if da[j] != db[j] {
				return false
			}
		}
	}
	return true
}

// TestCheckpointFileCrashSafety: a replica dying mid-save must never leave
// a torn checkpoint where the complete one stood. SaveTrainingFile writes
// to a temp file and renames, so a crash at ANY byte of the write leaves
// either the previous complete checkpoint (temp not yet published) or the
// new complete one — we simulate the crash by replaying every state the
// crash could leave on disk and asserting LoadTrainingFile always sees a
// whole checkpoint.
func TestCheckpointFileCrashSafety(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "train.ckpt")

	_, opt1 := newResumeModel(t)
	runAdam(opt1, 0, 4)
	if err := SaveTrainingFile(path, opt1); err != nil {
		t.Fatal(err)
	}

	// Advance training and serialize the next checkpoint to memory.
	runAdam(opt1, 4, 8)
	var next bytes.Buffer
	if err := SaveTraining(&next, opt1); err != nil {
		t.Fatal(err)
	}

	// Crash mid-save: the writer dies after any prefix of the new stream
	// has reached the TEMP file (exactly where SaveTrainingFile puts it).
	// The published path must still hold the old complete checkpoint.
	for _, cut := range []int{0, 1, len(trainingMagic), next.Len() / 2, next.Len() - 1} {
		tmp := filepath.Join(dir, "train.ckpt.tmp-crash")
		if err := os.WriteFile(tmp, next.Bytes()[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, opt := newResumeModel(t)
		if err := LoadTrainingFile(path, opt); err != nil {
			t.Fatalf("crash at byte %d tore the published checkpoint: %v", cut, err)
		}
		os.Remove(tmp)
	}

	// A torn stream itself is always detected, never silently loaded:
	// every strict prefix of a checkpoint fails to parse.
	for _, cut := range []int{0, 4, len(trainingMagic) + 3, next.Len() / 3, next.Len() - 1} {
		torn := filepath.Join(dir, "torn.ckpt")
		if err := os.WriteFile(torn, next.Bytes()[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, opt := newResumeModel(t)
		if err := LoadTrainingFile(torn, opt); err == nil {
			t.Fatalf("torn checkpoint (cut at %d/%d) loaded without error", cut, next.Len())
		}
	}

	// The complete new checkpoint, published atomically, loads and matches.
	if err := SaveTrainingFile(path, opt1); err != nil {
		t.Fatal(err)
	}
	_, opt2 := newResumeModel(t)
	if err := LoadTrainingFile(path, opt2); err != nil {
		t.Fatal(err)
	}
	if !paramsEqual(opt1, opt2) {
		t.Fatal("restored parameters diverge from saved")
	}

	// No temp litter left behind by successful saves.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") && !strings.Contains(e.Name(), "crash") {
			t.Fatalf("temp file %s leaked", e.Name())
		}
	}
}

// TestScheduledAdamCheckpointResume: the schedule wrapper's own step (which
// drives the LR factor) and the inner Adam state both survive a save/load —
// resuming mid-schedule reproduces the uninterrupted run bitwise.
func TestScheduledAdamCheckpointResume(t *testing.T) {
	const half, total = 6, 12
	newSched := func() *ScheduledAdam {
		e := ops.New(nil)
		rng := rand.New(rand.NewSource(11))
		l := NewLinear(rng, "fc", 5, 3, true)
		return NewScheduledAdam(NewAdam(e, l.Params(), 1e-2), Warmup{WarmupSteps: 4})
	}
	run := func(opt *ScheduledAdam, from, to int) {
		for s := from + 1; s <= to; s++ {
			fillGrads(opt, s)
			opt.Step()
		}
	}

	ref := newSched()
	run(ref, 0, total)

	opt1 := newSched()
	run(opt1, 0, half)
	var buf bytes.Buffer
	if err := SaveTraining(&buf, opt1); err != nil {
		t.Fatal(err)
	}
	opt2 := newSched()
	if err := LoadTraining(bytes.NewReader(buf.Bytes()), opt2); err != nil {
		t.Fatal(err)
	}
	if opt2.step != half {
		t.Fatalf("schedule step restored as %d, want %d", opt2.step, half)
	}
	run(opt2, half, total)

	if !paramsEqual(ref, opt2) {
		t.Fatal("resumed scheduled-adam run diverges from uninterrupted run")
	}
	if opt2.Adam.LR != ref.Adam.LR {
		t.Fatalf("final LR %v != reference %v", opt2.Adam.LR, ref.Adam.LR)
	}

	// Kind mismatch: a sched-adam checkpoint must not load into plain adam.
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(11))
	l := NewLinear(rng, "fc", 5, 3, true)
	plain := NewAdam(e, l.Params(), 1e-2)
	if err := LoadTraining(bytes.NewReader(buf.Bytes()), plain); err == nil {
		t.Fatal("sched-adam checkpoint loaded into plain adam")
	}
}
