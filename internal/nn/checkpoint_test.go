package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"gnnmark/internal/autograd"
	"gnnmark/internal/ops"
	"gnnmark/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l1 := NewLinear(rng, "a", 4, 6, true)
	l2 := NewLinear(rng, "b", 6, 2, true)
	params := CollectParams(l1, l2)

	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}

	// Restore into a freshly initialized twin and compare values.
	rng2 := rand.New(rand.NewSource(99))
	m1 := NewLinear(rng2, "a", 4, 6, true)
	m2 := NewLinear(rng2, "b", 6, 2, true)
	twin := CollectParams(m1, m2)
	if twin[0].Value.At(0, 0) == params[0].Value.At(0, 0) {
		t.Fatal("twin accidentally identical before load")
	}
	if err := LoadParams(bytes.NewReader(buf.Bytes()), twin); err != nil {
		t.Fatal(err)
	}
	for i, p := range params {
		for j, v := range p.Value.Data() {
			if twin[i].Value.Data()[j] != v {
				t.Fatalf("param %d element %d not restored", i, j)
			}
		}
	}
}

func TestCheckpointRestoresBehavior(t *testing.T) {
	// Train a model, snapshot, perturb, restore: outputs must match the
	// snapshot exactly.
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, "fc", 3, 2, true)
	x := tensor.Randn(rng, 1, 4, 3)

	forward := func() []float32 {
		tp := autograd.NewTape(e)
		out := l.Forward(tp, tp.Const(x))
		return append([]float32(nil), out.Value.Data()...)
	}
	var buf bytes.Buffer
	if err := SaveParams(&buf, l.Params()); err != nil {
		t.Fatal(err)
	}
	want := forward()
	l.W.Value.Zero()
	if got := forward(); got[0] == want[0] {
		t.Fatal("perturbation had no effect")
	}
	if err := LoadParams(bytes.NewReader(buf.Bytes()), l.Params()); err != nil {
		t.Fatal(err)
	}
	got := forward()
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("restored model diverges")
		}
	}
}

func TestCheckpointMismatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear(rng, "fc", 3, 2, true)
	var buf bytes.Buffer
	if err := SaveParams(&buf, l.Params()); err != nil {
		t.Fatal(err)
	}

	// Wrong parameter count.
	other := NewLinear(rng, "fc", 3, 2, false)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), other.Params()); err == nil {
		t.Fatal("count mismatch must error")
	}
	// Wrong name.
	renamed := NewLinear(rng, "zz", 3, 2, true)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), renamed.Params()); err == nil {
		t.Fatal("name mismatch must error")
	}
	// Wrong shape.
	bigger := NewLinear(rng, "fc", 3, 4, true)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), bigger.Params()); err == nil {
		t.Fatal("shape mismatch must error")
	}
	// Corrupt magic.
	if err := LoadParams(bytes.NewReader([]byte("NOTMAGIC....")), l.Params()); err == nil {
		t.Fatal("bad magic must error")
	}
	// Truncated stream.
	if err := LoadParams(bytes.NewReader(buf.Bytes()[:20]), l.Params()); err == nil {
		t.Fatal("truncated checkpoint must error")
	}
}
