package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"gnnmark/internal/autograd"
	"gnnmark/internal/tensor"
)

// Checkpointing serializes parameter sets so trained models can be saved
// and restored — the mechanism behind the paper's plan to "provide a set of
// pretrained models" for inference studies. The format is a simple
// length-prefixed binary stream, all little-endian. Its unit is the GNNMARK1
// block: magic, entry count, then per entry its name, shape, and float32
// data. A parameter checkpoint is one block. A training checkpoint is
// GNNMARKT, the parameter block, then the optimizer's state as data: its
// kind, its step counters (count, then values), and a second block holding
// its per-parameter buffers under their own names ("fc.w.m", "fc.w.v").
//
// This file encodes, matches and assigns; decode.go is the only parser. A
// restore decodes the whole stream, matches all of it against the target,
// and only then assigns, so a checkpoint that fails to load — at any byte —
// leaves the model and the optimizer exactly as they were.

const (
	checkpointMagic = "GNNMARK1"
	// trainingMagic marks a full training checkpoint: parameters plus
	// optimizer state, so an interrupted run resumes bitwise-identically.
	trainingMagic = "GNNMARKT"
)

// entry is one named tensor a checkpoint block carries: a parameter's value
// or an optimizer buffer.
type entry struct {
	name string
	t    *tensor.Tensor
}

func paramEntries(params []*autograd.Param) []entry {
	es := make([]entry, len(params))
	for i, p := range params {
		es[i] = entry{p.Name, p.Value}
	}
	return es
}

// optState is what a training checkpoint carries for an optimizer beyond its
// parameters, as pointers into the live optimizer: one save loop reads
// through them and one load loop writes through them.
type optState struct {
	kind     string
	counters []*int
	bufs     []entry
}

// appendBlock appends one GNNMARK1 block holding es to b, growing b once.
func appendBlock(b []byte, es []entry) []byte {
	size := len(checkpointMagic) + 4
	for _, e := range es {
		size += 8 + len(e.name) + 4*len(e.t.Shape()) + 4*e.t.Size()
	}
	b = appendU32(append(slices.Grow(b, size), checkpointMagic...), len(es))
	for _, e := range es {
		b = appendString(b, e.name)
		b = appendU32(b, len(e.t.Shape()))
		for _, d := range e.t.Shape() {
			b = appendU32(b, d)
		}
		for _, v := range e.t.Data() {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
	}
	return b
}

func appendU32(b []byte, v int) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }

func appendString(b []byte, s string) []byte { return append(appendU32(b, len(s)), s...) }

func write(w io.Writer, b []byte) error {
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("nn: writing checkpoint: %w", err)
	}
	return nil
}

// match is the one rule for pairing checkpoint entries with a model's: same
// count and, position by position, same name and shape.
func match(saved []SavedParam, dst []entry) error {
	if len(saved) != len(dst) {
		return fmt.Errorf("nn: checkpoint has %d entries, model has %d", len(saved), len(dst))
	}
	for i, s := range saved {
		if d := dst[i]; s.Name != d.name {
			return fmt.Errorf("nn: checkpoint entry %q does not match model's %q", s.Name, d.name)
		} else if !slices.Equal(s.Shape, d.t.Shape()) {
			return fmt.Errorf("nn: %s has shape %v, model expects %v", s.Name, s.Shape, d.t.Shape())
		}
	}
	return nil
}

func assign(saved []SavedParam, dst []entry) {
	for i, s := range saved {
		copy(dst[i].t.Data(), s.Data)
	}
}

// SaveParams writes params to w. Parameter order is preserved and must
// match at load time (the layers' construction order is deterministic).
func SaveParams(w io.Writer, params []*autograd.Param) error {
	return write(w, appendBlock(nil, paramEntries(params)))
}

// LoadParams restores a checkpoint into params, which must match the saved
// set in order, name, and shape; on any error params are untouched.
func LoadParams(r io.Reader, params []*autograd.Param) error {
	saved, err := DecodeParams(r)
	if err != nil {
		return err
	}
	return AssignParams(saved, params)
}

// AssignParams copies decoded entries into params if the two sets match,
// and nothing otherwise.
func AssignParams(saved []SavedParam, params []*autograd.Param) error {
	dst := paramEntries(params)
	if err := match(saved, dst); err != nil {
		return err
	}
	assign(saved, dst)
	return nil
}

// Snapshot returns opt's training checkpoint: the parameters followed by the
// optimizer's own state — Adam first/second moments and step count, SGD
// momentum buffers. It is how a model's state is carried from one replica
// into another (elastic recovery, a rebuild after a loader kill, the serving
// freeze): restoring it and continuing training produces exactly the
// iterates an uninterrupted run would.
func Snapshot(opt Optimizer) []byte {
	b := appendBlock([]byte(trainingMagic), paramEntries(opt.Params()))
	st := opt.state()
	b = appendU32(appendString(b, st.kind), len(st.counters))
	for _, c := range st.counters {
		b = appendU32(b, *c)
	}
	return appendBlock(b, st.bufs)
}

// Restore loads a Snapshot into opt's parameters and state. The optimizer
// must be of the same kind and over the same parameter set (order, names,
// shapes) as the one saved; on any error neither the parameters nor the
// optimizer state have been written.
func Restore(opt Optimizer, ckpt []byte) error {
	return restore(&decoder{b: ckpt}, opt)
}

func restore(d *decoder, opt Optimizer) error {
	saved := d.training()
	if d.err != nil {
		return d.err
	}
	st, params := opt.state(), paramEntries(opt.Params())
	if err := match(saved.params, params); err != nil {
		return err
	}
	if saved.kind != st.kind || len(saved.counters) != len(st.counters) {
		return fmt.Errorf("nn: checkpoint optimizer is %q with %d counters, model uses %s with %d",
			saved.kind, len(saved.counters), st.kind, len(st.counters))
	}
	if err := match(saved.bufs, st.bufs); err != nil {
		return err
	}
	assign(saved.params, params)
	assign(saved.bufs, st.bufs)
	for i, c := range st.counters {
		*c = saved.counters[i]
	}
	return nil
}

// SaveTraining writes opt's Snapshot to w.
func SaveTraining(w io.Writer, opt Optimizer) error { return write(w, Snapshot(opt)) }

// LoadTraining is Restore from a stream.
func LoadTraining(r io.Reader, opt Optimizer) error { return restore(readAll(r), opt) }
