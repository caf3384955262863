package serve

import (
	"bytes"
	"math/rand"
	"testing"

	"gnnmark/internal/autograd"
	"gnnmark/internal/nn"
	"gnnmark/internal/ops"
	"gnnmark/internal/tensor"
)

func testParams(seed int64) []*autograd.Param {
	rng := rand.New(rand.NewSource(seed))
	l1 := nn.NewLinear(rng, "m.l1", 3, 4, true)
	l2 := nn.NewLinear(rng, "m.l2", 4, 2, false)
	return nn.CollectParams(l1, l2)
}

func TestFreezeFromTrainingCheckpoint(t *testing.T) {
	params := testParams(1)
	opt := nn.NewAdam(ops.New(nil), params, 1e-3)
	// Step once so the checkpoint carries nonzero optimizer state Freeze
	// must skip over.
	for _, p := range params {
		p.Grad = p.Value.Clone()
	}
	opt.Step()

	var buf bytes.Buffer
	if err := nn.SaveTraining(&buf, opt); err != nil {
		t.Fatal(err)
	}
	w, err := Freeze(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.params) != len(params) {
		t.Fatalf("frozen %d params, want %d", len(w.params), len(params))
	}

	// Load into differently-initialized twins: bitwise restore, and one
	// snapshot initializes any number of replicas identically.
	for seed := int64(2); seed < 4; seed++ {
		twin := testParams(seed)
		if err := w.LoadInto(twin); err != nil {
			t.Fatal(err)
		}
		for i, p := range params {
			if !tensorsEqual(p.Value, twin[i].Value) {
				t.Fatalf("%s not bitwise-restored into twin %d", p.Name, seed)
			}
		}
	}
}

// TestLoadIntoMismatches: a replica whose parameter set is not the frozen
// model's — by count, name or shape, a transposed shape of equal element
// count included — is rejected with none of its parameters written.
func TestLoadIntoMismatches(t *testing.T) {
	w := freezeOf(t, nn.NewAdam(ops.New(nil), testParams(6), 1e-3))
	for name, mutate := range map[string]func(p []*autograd.Param) []*autograd.Param{
		"missing parameter": func(p []*autograd.Param) []*autograd.Param { return p[:len(p)-1] },
		"unknown name": func(p []*autograd.Param) []*autograd.Param {
			p[2] = autograd.NewParam("nope", p[2].Value)
			return p
		},
		"wrong size": func(p []*autograd.Param) []*autograd.Param {
			p[2] = autograd.NewParam(p[2].Name, tensor.New(1))
			return p
		},
		"transposed": func(p []*autograd.Param) []*autograd.Param {
			sh := p[2].Value.Shape()
			p[2] = autograd.NewParam(p[2].Name, tensor.New(sh[1], sh[0]))
			return p
		},
	} {
		dst := mutate(testParams(7))
		before := dst[0].Value.Clone()
		if err := w.LoadInto(dst); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !tensorsEqual(before, dst[0].Value) {
			t.Errorf("%s: a rejected load wrote parameter 0", name)
		}
	}
}
