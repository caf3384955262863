package tensor

import (
	"sync"
	"sync/atomic"

	"gnnmark/internal/vmem"
)

// Process-wide host buffer pool for transient tensors that cross goroutines
// (the loader's staged batches; an engine's own outputs and gradients come
// from its Arena): backing slices recycle through sync.Pool instances keyed
// by the same 512-byte size classes the device allocator uses
// (vmem.RoundSize), so a recycled buffer serves every request in its class.
// Pooled tensors are zero-filled on reuse, keeping results bitwise
// identical to freshly allocated ones; the win is allocation rate, not
// bytes. All entry points are safe for concurrent use.

// pools maps class byte size -> *sync.Pool of []float32 with cap =
// class/4. sync.Map: classes are few and stabilize quickly, reads dominate.
var pools sync.Map

// PoolStats counts pool and arena traffic process-wide.
type PoolStats struct {
	// Gets counts NewPooled calls and arena requests; Hits the subset
	// served by a recycled buffer; Puts the buffers accepted back by
	// Recycle and by arena releases.
	Gets, Hits, Puts uint64
}

var poolGets, poolHits, poolPuts atomic.Uint64

// GetPoolStats returns a snapshot of the pool counters.
func GetPoolStats() PoolStats {
	return PoolStats{Gets: poolGets.Load(), Hits: poolHits.Load(), Puts: poolPuts.Load()}
}

// classFor returns the size class of an n-element buffer, or 0 when n is 0.
func classFor(n int) int64 {
	if n == 0 {
		return 0
	}
	return vmem.RoundSize(int64(n) * 4)
}

// NewPooled returns a zero-filled tensor of the given shape whose backing
// slice comes from the buffer pool when one is cached. Return it with
// Recycle when its lifetime ends; a leaked pooled tensor is merely
// garbage-collected.
func NewPooled(shape ...int) *Tensor {
	n := checkShape(shape)
	class := classFor(n)
	if class == 0 {
		return New(shape...)
	}
	poolGets.Add(1)
	p, ok := pools.Load(class)
	if ok {
		if bp, _ := p.(*sync.Pool).Get().(*[]float32); bp != nil {
			poolHits.Add(1)
			data := (*bp)[:n]
			clear(data)
			return &Tensor{shape: append([]int(nil), shape...), data: data}
		}
	}
	// Allocate at full class capacity so the buffer re-enters the pool.
	data := make([]float32, class/4)[:n]
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Recycle returns t's backing slice to the pool. The caller must not touch
// t or any view of its data afterwards. Tensors whose backing capacity is
// not exactly a pool class (anything not built by NewPooled, or a reshaped
// sub-view) are dropped silently — the GC handles them as before. Recycle
// of nil is a no-op.
func Recycle(t *Tensor) {
	if t == nil {
		return
	}
	buf := t.data[:0]
	c := cap(buf)
	if c == 0 || classFor(c) != int64(c)*4 {
		return
	}
	class := int64(c) * 4
	p, _ := pools.LoadOrStore(class, &sync.Pool{})
	full := buf[:c]
	p.(*sync.Pool).Put(&full)
	poolPuts.Add(1)
	t.data = nil
	t.shape = nil
}
