package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"gnnmark/internal/autograd"
	"gnnmark/internal/ops"
	"gnnmark/internal/tensor"
)

// FuzzLoadParams hardens the checkpoint decoder — the one parser behind
// LoadParams, LoadTraining and serve.Freeze — against malformed input:
// corrupt magic, hostile length prefixes, truncated streams, and arbitrary
// garbage must all return errors — never panic, never allocate past the
// decoder's bounds, and never leave a target half-restored. The seed corpus
// (valid checkpoints plus targeted corruptions) runs under plain `go test`.
func FuzzLoadParams(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	l := NewLinear(rng, "fc", 3, 2, true)
	var valid bytes.Buffer
	if err := SaveParams(&valid, l.Params()); err != nil {
		f.Fatal(err)
	}
	e := ops.New(nil)
	opt := NewAdam(e, l.Params(), 1e-2)
	var validTraining bytes.Buffer
	if err := SaveTraining(&validTraining, opt); err != nil {
		f.Fatal(err)
	}

	f.Add(valid.Bytes())
	f.Add(validTraining.Bytes())
	f.Add([]byte{})
	f.Add([]byte("GNNMARK1"))
	f.Add([]byte("GNNMARKT"))
	// Hostile string length right after magic and count.
	hostile := append([]byte("GNNMARK1"), 0x02, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff)
	f.Add(hostile)
	// Truncations of a valid stream.
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add(validTraining.Bytes()[:len(validTraining.Bytes())-4])
	// Streams that decode cleanly and must be refused whole by the matcher:
	// two optimizer kinds the target is not, and a transposed weight.
	f.Add(Snapshot(NewScheduledAdam(opt, Warmup{WarmupSteps: 4})))
	f.Add(Snapshot(NewSGD(e, l.Params(), 1e-2, 0.9, 0)))
	f.Add(Snapshot(NewAdam(e, []*autograd.Param{autograd.NewParam("fc.w", tensor.New(2, 3)), l.B}, 1e-2)))

	f.Fuzz(func(t *testing.T, data []byte) {
		rng := rand.New(rand.NewSource(11))
		fl := NewLinear(rng, "fc", 3, 2, true)
		fopt := NewAdam(ops.New(nil), fl.Params(), 1e-2)
		before := Snapshot(fopt)
		if err := LoadParams(bytes.NewReader(data), fl.Params()); err != nil && !bytes.Equal(Snapshot(fopt), before) {
			t.Fatalf("LoadParams failed (%v) and wrote its target", err)
		}
		before = Snapshot(fopt)
		if err := LoadTraining(bytes.NewReader(data), fopt); err != nil && !bytes.Equal(Snapshot(fopt), before) {
			t.Fatalf("LoadTraining failed (%v) and wrote its target", err)
		}
	})
}
