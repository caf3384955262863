package obs

import "sync"

// defaultTrackLimit caps recorded spans per track so long runs cannot
// exhaust memory; past the cap, spans are counted as dropped.
const defaultTrackLimit = 200_000

// Span is one recorded wall-clock interval on a track. Start is in
// nanoseconds on the package clock (Nanos); Parent is the index of the
// enclosing span within the same track, or -1 for a root span.
type Span struct {
	Name   string
	Cat    string
	Start  int64
	Dur    int64
	Parent int32
}

// Track records spans for one logical thread of execution (an op engine,
// a DDP reducer). A nil *Track is the disabled tracer: every method
// no-ops without allocating, which is what keeps instrumented paths free
// when observability is off. Methods are mutex-guarded, so a track
// tolerates Reset/snapshot from other goroutines, but spans themselves
// should be produced by one goroutine (nesting uses a stack).
type Track struct {
	ID   int
	Name string

	mu      sync.Mutex
	spans   []Span
	stack   []int32 // indices of currently open spans
	limit   int
	dropped int64
}

// Scope is the handle returned by Begin; End closes the span. The zero
// Scope (from a nil or saturated track) is valid and End on it no-ops.
type Scope struct {
	t   *Track
	idx int32
}

// Begin opens a nested span; the currently open span (if any) becomes its
// parent. Returns a Scope whose End closes it.
func (t *Track) Begin(name, cat string) Scope {
	if t == nil {
		return Scope{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.limit {
		t.dropped++
		return Scope{}
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Cat: cat, Start: Nanos(), Dur: -1, Parent: t.parentLocked()})
	t.stack = append(t.stack, idx)
	return Scope{t: t, idx: idx}
}

// End closes the span opened by Begin. Inner spans still open are closed
// implicitly (popped) — spans end LIFO.
func (s Scope) End() {
	if s.t == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[s.idx]
	if sp.Dur < 0 {
		sp.Dur = Nanos() - sp.Start
	}
	for n := len(t.stack); n > 0 && t.stack[n-1] >= s.idx; n-- {
		t.stack = t.stack[:n-1]
	}
}

// Record appends an already-measured span (start/dur in Nanos clock
// nanoseconds) as a child of the currently open span. The op engine uses
// it to attribute the host interval between consecutive kernel launches
// to the op that issued the kernel, without a Begin/End pair per op.
func (t *Track) Record(name, cat string, start, dur int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.limit {
		t.dropped++
		return
	}
	t.spans = append(t.spans, Span{Name: name, Cat: cat, Start: start, Dur: dur, Parent: t.parentLocked()})
}

// parentLocked returns the index of the innermost open span, or -1.
func (t *Track) parentLocked() int32 {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return -1
}

// reset discards recorded spans and the open-span stack.
func (t *Track) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
	t.stack = t.stack[:0]
	t.dropped = 0
}

// TrackSnapshot is a copy of one track's recorded spans.
type TrackSnapshot struct {
	ID      int
	Name    string
	Spans   []Span
	Dropped int64
}

// snapshot copies the track's spans, closing still-open spans at "now".
func (t *Track) snapshot() TrackSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := append([]Span(nil), t.spans...)
	now := Nanos()
	for i := range spans {
		if spans[i].Dur < 0 {
			spans[i].Dur = now - spans[i].Start
		}
	}
	return TrackSnapshot{ID: t.ID, Name: t.Name, Spans: spans, Dropped: t.dropped}
}
