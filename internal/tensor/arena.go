package tensor

import "math/bits"

// Arena serves the host tensors whose lifetime their owner knows: an
// ops.Engine draws every op output and every tape gradient from its own
// arena and releases them where it releases their device blocks, the host
// mirror of the simulated caching allocator. A released tensor is poisoned
// (nil data and shape) and its buffer goes back on a free list for the next
// request of its size class.
//
// Size classes are quarter octaves: a request of n elements gets a buffer of
// the smallest class at or above n, at most 25 % larger (16 elements at
// least). A miss takes a free buffer up to 2x the class before allocating.
// At every ReleaseAll the buffers no request reached since the previous one
// are dropped to the garbage collector, so an arena keeps about one
// iteration's working set and follows a workload whose shapes change. Drop
// forgets everything when the owner is done with it.
//
// An Arena is not safe for concurrent use: every engine owns one. Its
// traffic counts into GetPoolStats beside the process-wide pool's.
type Arena struct {
	free [][][]float32 // class -> stack of free buffers, each of the class's capacity
	low  []int         // class -> fewest free buffers since the last ReleaseAll
	live []*Tensor     // tensors handed out since the last ReleaseAll
	slab []Tensor      // the rest of the current chunk of headers
}

// slabTensors is the number of headers in a chunk. A chunk is never reused,
// even after Drop, so a released tensor stays poisoned while it is held.
const slabTensors = 64

// minClassElems is the capacity of the smallest class.
const minClassElems = 16

// classOf returns the class of an n-element request (n >= 1): class 0 holds
// up to 16 elements, and each octave (2^(b-1), 2^b] above it has four
// classes, the first octave (16, 32] being classes 1 to 4.
func classOf(n int) int {
	if n <= minClassElems {
		return 0
	}
	b := bits.Len(uint(n - 1)) // 2^(b-1) < n <= 2^b
	base, step := 1<<(b-1), 1<<(b-3)
	q := (n - base + step - 1) / step
	return (b-5)*4 + q
}

// classCap returns the buffer capacity of class k.
func classCap(k int) int {
	if k == 0 {
		return minClassElems
	}
	b, q := 5+(k-1)/4, (k-1)%4+1
	return 1<<(b-1) + q<<(b-3)
}

// New returns a zero-filled tensor of the given shape that lives until the
// owner releases it. A buffer allocated on a miss is already zero; only a
// reused one is cleared.
func (a *Arena) New(shape ...int) *Tensor {
	t, fresh := a.get(shape)
	if !fresh {
		clear(t.data)
	}
	return t
}

// Empty returns a tensor of the given shape whose contents are unspecified:
// the caller writes every element before reading any.
func (a *Arena) Empty(shape ...int) *Tensor {
	t, _ := a.get(shape)
	return t
}

// get returns a tensor of the given shape and whether its buffer was just
// allocated, and so is zero.
func (a *Arena) get(shape []int) (*Tensor, bool) {
	n := checkShape(shape)
	if len(a.slab) == 0 {
		a.slab = make([]Tensor, slabTensors)
	}
	t := a.slab[0].setShape(shape)
	a.slab = a.slab[1:]
	if n == 0 {
		t.data = []float32{}
		return t, true
	}
	var fresh bool
	t.data, fresh = a.take(n)
	a.live = append(a.live, t)
	return t, fresh
}

// take returns an n-element slice of a free buffer of n's class, else of
// one up to four classes (2x) above it, else of a new buffer of n's class;
// it reports whether the buffer is new.
func (a *Arena) take(n int) ([]float32, bool) {
	k := classOf(n)
	poolGets.Add(1)
	for c := k; c <= k+4 && c < len(a.free); c++ {
		s := a.free[c]
		if len(s) == 0 {
			continue
		}
		buf := s[len(s)-1]
		s[len(s)-1] = nil
		a.free[c] = s[:len(s)-1]
		a.low[c] = min(a.low[c], len(s)-1)
		poolHits.Add(1)
		return buf[:n], false
	}
	return make([]float32, classCap(k))[:n], true
}

// Release returns t's buffer to the arena before the next ReleaseAll and
// poisons t; t must come from a, and no view of its data may be used
// afterwards. Releasing an empty or already released tensor does nothing.
func (a *Arena) Release(t *Tensor) {
	if cap(t.data) == 0 {
		return
	}
	buf := t.data[:cap(t.data)]
	k := classOf(len(buf))
	for len(a.free) <= k {
		a.free = append(a.free, nil)
		a.low = append(a.low, 0)
	}
	a.free[k] = append(a.free[k], buf)
	poolPuts.Add(1)
	t.data, t.shape = nil, nil
}

// ReleaseAll releases every tensor handed out since the last call, after
// dropping the free buffers no request took in that time. A call with no
// request since the last one does nothing: an epoch's Reset followed by the
// next iteration's start is one boundary, not an idle iteration.
func (a *Arena) ReleaseAll() {
	if len(a.live) == 0 {
		return
	}
	for k, s := range a.free {
		if d := a.low[k]; d > 0 {
			n := copy(s, s[d:])
			clear(s[n:])
			a.free[k] = s[:n]
		}
	}
	for _, t := range a.live {
		a.Release(t)
	}
	clear(a.live)
	a.live = a.live[:0]
	for k, s := range a.free {
		a.low[k] = len(s)
	}
}

// Drop forgets every buffer, free or handed out, and reports whether the
// arena had served any request since it was made or last dropped. Tensors
// already handed out stay valid: their buffers are no longer reused, and the
// garbage collector takes them with their last reference.
func (a *Arena) Drop() bool {
	served := a.free != nil || len(a.live) > 0
	*a = Arena{}
	return served
}
