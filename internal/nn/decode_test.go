package nn

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"gnnmark/internal/ops"
)

func TestDecodeParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l1 := NewLinear(rng, "a", 4, 6, true)
	l2 := NewLinear(rng, "b", 6, 2, false)
	params := CollectParams(l1, l2)

	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	saved, err := DecodeParams(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != len(params) {
		t.Fatalf("decoded %d params, want %d", len(saved), len(params))
	}
	for i, p := range params {
		s := saved[i]
		if s.Name != p.Name {
			t.Fatalf("param %d name %q, want %q", i, s.Name, p.Name)
		}
		shape := p.Value.Shape()
		if len(s.Shape) != len(shape) {
			t.Fatalf("%s rank %d, want %d", s.Name, len(s.Shape), len(shape))
		}
		for j, d := range shape {
			if s.Shape[j] != d {
				t.Fatalf("%s dim %d is %d, want %d", s.Name, j, s.Shape[j], d)
			}
		}
		if len(s.Data) != p.Value.Size() {
			t.Fatalf("%s size %d, want %d", s.Name, len(s.Data), p.Value.Size())
		}
		for j, v := range p.Value.Data() {
			if s.Data[j] != v {
				t.Fatalf("%s element %d not bitwise-preserved", s.Name, j)
			}
		}
	}
}

func TestDecodeTrainingParamsSkipsOptimizerState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewLinear(rng, "w", 3, 3, true)
	params := CollectParams(l)
	opt := NewAdam(ops.New(nil), params, 1e-3)
	// Step once so the moment buffers are nonzero and genuinely trail the
	// parameter block in the stream.
	for _, p := range params {
		p.Grad = p.Value.Clone()
	}
	opt.Step()

	var buf bytes.Buffer
	if err := SaveTraining(&buf, opt); err != nil {
		t.Fatal(err)
	}
	saved, err := DecodeTrainingParams(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != len(params) {
		t.Fatalf("decoded %d params, want %d", len(saved), len(params))
	}
	for i, p := range params {
		for j, v := range p.Value.Data() {
			if saved[i].Data[j] != v {
				t.Fatalf("%s element %d not bitwise-preserved", p.Name, j)
			}
		}
	}
}

func TestDecodeParamsRejectsCorruptStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear(rng, "w", 2, 2, false)
	var buf bytes.Buffer
	if err := SaveParams(&buf, CollectParams(l)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOTMARK1\x00\x00\x00\x00"),
		"truncated": good[:len(good)-3],
	}
	// Implausible parameter count.
	huge := append([]byte(nil), good[:8]...)
	huge = binary.LittleEndian.AppendUint32(huge, 1<<20)
	cases["huge count"] = huge
	for name, data := range cases {
		if _, err := DecodeParams(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
	if _, err := DecodeTrainingParams(bytes.NewReader(good)); err == nil {
		t.Error("DecodeTrainingParams accepted a params-only stream")
	}
}
