// Package loader implements the host side of the asynchronous input
// pipeline: worker goroutines materialize upcoming batches into pooled
// staging tensors ahead of the training loop, the way PyTorch DataLoader
// workers fill pinned buffers, plus the sparsity-aware transfer codec
// (codec.go) that models compressing zero-heavy H2D payloads.
//
// Determinism is load-bearing — the golden suite digests must not move
// when prefetching turns on — and rests on two rules. Batch content is a
// pure function of the batch index (producers share no RNG and no mutable
// state), and delivery order is fixed by construction: worker w owns
// indices w, w+W, w+2W, ... with its own buffered channel, and the
// consumer reads the channels round-robin, so batch i always arrives i-th
// regardless of goroutine scheduling. Channel hand-off gives the consumer
// the happens-before edge over the worker's writes to the staged tensors.
package loader

import (
	"fmt"
	"sync"

	"gnnmark/internal/obs"
	"gnnmark/internal/tensor"
)

// Observability handles (no-ops until obs.Enable).
var (
	obsBatches   = obs.GetCounter("loader.batches_total")
	obsWaitNanos = obs.GetCounter("loader.wait_nanos_total")
	obsStaged    = obs.GetCounter("loader.staged_bytes_total")
)

// Config sizes the pipeline.
type Config struct {
	// Depth is the number of batches staged ahead of the consumer. 0 (or
	// negative) disables prefetching entirely: batches materialize inline
	// on the consumer goroutine, which is the synchronous baseline.
	Depth int
	// Workers is the number of producer goroutines (default
	// DefaultWorkers(Depth), capped at Depth). It affects scheduling only,
	// never content or delivery order.
	Workers int
}

// DefaultWorkers is the number of producer goroutines a loader of the given
// depth starts when Config.Workers is unset: one per staged batch, at most 4.
func DefaultWorkers(depth int) int { return min(depth, 4) }

// Producer materializes batch `index` into b. It runs on a worker
// goroutine (or inline at depth 0) and must be a pure function of the
// index: no shared RNG, no writes outside b.
type Producer func(index int, b *Batch)

// Batch carries one iteration's staged inputs: named tensors (pooled
// staging buffers or borrowed statics) and int32 index buffers.
type Batch struct {
	// Index is the global batch sequence number.
	Index int

	tensors map[string]*tensor.Tensor
	ints    map[string][]int32
	pooled  []*tensor.Tensor
}

func newBatch(index int) *Batch {
	return &Batch{
		Index:   index,
		tensors: map[string]*tensor.Tensor{},
		ints:    map[string][]int32{},
	}
}

// Stage returns a zeroed pooled staging tensor registered under name; it
// is recycled automatically when the consumer moves past this batch.
func (b *Batch) Stage(name string, shape ...int) *tensor.Tensor {
	t := tensor.NewPooled(shape...)
	b.pooled = append(b.pooled, t)
	b.tensors[name] = t
	obsStaged.Add(int64(t.Size()) * 4)
	return t
}

// StageFrom stages a pooled copy of src under name.
func (b *Batch) StageFrom(name string, src *tensor.Tensor) *tensor.Tensor {
	t := b.Stage(name, src.Shape()...)
	t.CopyFrom(src)
	return t
}

// Put registers a borrowed tensor (not pooled, not recycled) under name —
// for static inputs that are reused across batches.
func (b *Batch) Put(name string, t *tensor.Tensor) { b.tensors[name] = t }

// PutInts registers an int32 index buffer under name.
func (b *Batch) PutInts(name string, v []int32) { b.ints[name] = v }

// Tensor returns the tensor staged under name, panicking on a missing
// name (a programmer error in the producer/consumer pairing).
func (b *Batch) Tensor(name string) *tensor.Tensor {
	t, ok := b.tensors[name]
	if !ok {
		panic(fmt.Sprintf("loader: batch %d has no tensor %q", b.Index, name))
	}
	return t
}

// Ints returns the int buffer staged under name.
func (b *Batch) Ints(name string) []int32 {
	v, ok := b.ints[name]
	if !ok {
		panic(fmt.Sprintf("loader: batch %d has no int buffer %q", b.Index, name))
	}
	return v
}

// recycle returns the batch's pooled staging tensors to the host pool.
func (b *Batch) recycle() {
	for _, t := range b.pooled {
		tensor.Recycle(t)
	}
	b.pooled = nil
}

// Loader hands the endless batch sequence 0, 1, 2, ... to a training loop
// in index order (the loop runs a fixed iteration count per epoch across
// any number of epochs), prefetched by background workers when Depth > 0.
type Loader struct {
	cfg     Config
	produce Producer

	chans  []chan *Batch
	quit   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
	closed bool

	next int
	last *Batch
}

// New builds a loader. With cfg.Depth > 0 workers start prefetching
// immediately; the caller must Close the loader to stop them.
func New(cfg Config, produce Producer) *Loader {
	if produce == nil {
		panic("loader: nil producer")
	}
	l := &Loader{cfg: cfg, produce: produce, quit: make(chan struct{})}
	if cfg.Depth <= 0 {
		return l // inline mode: no goroutines
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultWorkers(cfg.Depth)
	}
	workers = min(workers, cfg.Depth)
	// Per-worker buffer slots; total staged-ahead capacity >= Depth.
	slots := (cfg.Depth + workers - 1) / workers
	l.chans = make([]chan *Batch, workers)
	for w := 0; w < workers; w++ {
		l.chans[w] = make(chan *Batch, slots)
		l.wg.Add(1)
		go l.worker(w)
	}
	return l
}

// worker produces the indices it owns (w, w+W, w+2W, ...) into its own
// channel until Close fires.
func (l *Loader) worker(w int) {
	defer l.wg.Done()
	defer close(l.chans[w])
	for i := w; ; i += len(l.chans) {
		select {
		case <-l.quit:
			return
		default:
		}
		b := newBatch(i)
		l.produce(i, b)
		select {
		case l.chans[w] <- b:
		case <-l.quit:
			b.recycle()
			return
		}
	}
}

// Next returns the next batch in index order, blocking on the pipeline
// when it has not been staged yet. The previously returned batch's pooled
// buffers are recycled here — the training loop has consumed its tape (and
// with it every reference into the staged data) by the time it asks for
// the next batch. Returns nil after Close.
func (l *Loader) Next() *Batch {
	if l.last != nil {
		l.last.recycle()
		l.last = nil
	}
	if l.closed {
		return nil
	}
	var b *Batch
	if l.cfg.Depth <= 0 {
		b = newBatch(l.next)
		l.produce(l.next, b)
	} else {
		start := obs.Nanos()
		b = <-l.chans[l.next%len(l.chans)]
		obsWaitNanos.Add(obs.Nanos() - start)
		if b.Index != l.next {
			panic(fmt.Sprintf("loader: batch %d delivered out of order (want %d)", b.Index, l.next))
		}
	}
	l.next++
	l.last = b
	obsBatches.Inc()
	return b
}

// Close stops the workers, drains and recycles every staged batch, and
// waits for worker exit. Safe to call more than once; a closed loader's
// Next returns nil.
func (l *Loader) Close() {
	l.once.Do(func() {
		close(l.quit)
		// Unblock workers parked on a full channel, then wait them out.
		for _, ch := range l.chans {
			go func(ch chan *Batch) {
				for b := range ch {
					b.recycle()
				}
			}(ch)
		}
		l.wg.Wait()
		if l.last != nil {
			l.last.recycle()
			l.last = nil
		}
		l.closed = true
	})
}
