package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The checkpoint reader. Every byte of a checkpoint is parsed here and
// nowhere else, into plain values with no model involved: LoadParams and
// LoadTraining match what was decoded against their target before assigning
// any of it, and the serving plane (serve.Freeze) needs the weights before
// any model exists.

// decodeMaxRank, decodeMaxSize and decodeMaxCount bound what a stream may
// claim; a claim is then checked against the bytes that are left before
// anything is allocated for it, so a corrupt or hostile stream cannot ask
// for absurd buffers. The largest real parameter in the suite (kGNN's hidden
// weights) is far below all of them.
const (
	decodeMaxRank  = 8
	decodeMaxSize  = 1 << 28 // 256M floats = 1 GiB per parameter
	decodeMaxCount = 1 << 16
)

// SavedParam is one decoded checkpoint entry: its registered name, its
// shape in row-major order, and its float32 data (len = the shape's volume).
type SavedParam struct {
	Name  string
	Shape []int
	Data  []float32
}

// savedTraining is a decoded training checkpoint.
type savedTraining struct {
	params   []SavedParam
	kind     string
	counters []int
	bufs     []SavedParam
}

// decoder is a cursor over checkpoint bytes with a sticky error: a field
// that cannot be read records why and reads as zero, and every later read
// fails too, so a parse is checked once, at its end.
type decoder struct {
	b   []byte
	err error
}

// readAll starts a decoder over everything r holds.
func readAll(r io.Reader) *decoder {
	b, err := io.ReadAll(r)
	d := &decoder{b: b}
	if err != nil {
		d.fail("reading checkpoint: %w", err)
	}
	return d
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("nn: "+format, args...)
	}
}

// take returns the next n bytes, or nil if the stream ends first.
func (d *decoder) take(n int, what string) []byte {
	if d.err == nil && n > len(d.b) {
		d.fail("checkpoint truncated in %s", what)
	}
	if d.err != nil {
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// u32 reads a count, dimension or counter no larger than limit.
func (d *decoder) u32(limit uint32, what string) int {
	b := d.take(4, what)
	if b == nil {
		return 0
	}
	v := binary.LittleEndian.Uint32(b)
	if v > limit {
		d.fail("implausible %s %d", what, v)
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	return string(d.take(d.u32(decodeMaxCount, "string length"), "string"))
}

func (d *decoder) magic(want string) {
	if got := d.take(len(want), "magic"); got != nil && string(got) != want {
		d.fail("not a gnnmark checkpoint (magic %q, want %q)", got, want)
	}
}

// block parses one GNNMARK1 block: magic, entry count, then per entry its
// name, rank, dimensions and data.
func (d *decoder) block() []SavedParam {
	d.magic(checkpointMagic)
	var out []SavedParam
	for n := d.u32(decodeMaxCount, "entry count"); n > 0 && d.err == nil; n-- {
		p := SavedParam{Name: d.str()}
		p.Shape = make([]int, d.u32(decodeMaxRank, "rank"))
		size := 1
		for j := range p.Shape {
			p.Shape[j] = d.u32(decodeMaxSize, "dimension")
			if size *= p.Shape[j]; d.err == nil && (size == 0 || size > decodeMaxSize) {
				d.fail("%s has an implausible shape", p.Name)
			}
		}
		raw := d.take(4*size, "entry data")
		p.Data = make([]float32, len(raw)/4)
		for k := range p.Data {
			p.Data[k] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*k:]))
		}
		out = append(out, p)
	}
	return out
}

// training parses a whole SaveTraining stream: the parameter block, then the
// optimizer's kind, step counters and buffer block.
func (d *decoder) training() savedTraining {
	d.magic(trainingMagic)
	s := savedTraining{params: d.block(), kind: d.str()}
	for n := d.u32(decodeMaxCount, "counter count"); n > 0 && d.err == nil; n-- {
		s.counters = append(s.counters, d.u32(math.MaxUint32, "counter"))
	}
	s.bufs = d.block()
	return s
}

// DecodeParams reads a SaveParams stream (one GNNMARK1 block) and returns
// the saved entries in checkpoint order.
func DecodeParams(r io.Reader) ([]SavedParam, error) {
	d := readAll(r)
	return d.block(), d.err
}

// DecodeTrainingParams reads a SaveTraining stream (GNNMARKT) and returns
// only its parameters, not parsing the optimizer state that follows — the
// serving plane freezes weights and has no use for Adam moments.
func DecodeTrainingParams(r io.Reader) ([]SavedParam, error) {
	d := readAll(r)
	d.magic(trainingMagic)
	return d.block(), d.err
}
