package ops

import (
	"gnnmark/internal/loader"
	"gnnmark/internal/stream"
	"gnnmark/internal/tensor"
)

// pipeState is the engine's view of the asynchronous input pipeline: the
// two-stream timeline and the bounded-staging dependency bookkeeping.
type pipeState struct {
	tl            *stream.Timeline
	compute, copy *stream.Stream
	depth         int
	compress      bool

	// iter counts started iterations; finish is a depth-sized ring of
	// compute-stream finish times, finish[i%depth] belonging to iteration
	// i. A staged copy for iteration i may start once iteration i-depth
	// has finished — its staging slot is free again — which is exactly the
	// bounded prefetch queue's back-pressure.
	iter   int
	finish []float64
	// staged marks the current iteration's inputs as pipeline-staged
	// (loader batches, materialized ahead of time); stagedNext latches the
	// mark between the loader hand-off and the next BeginIteration.
	staged, stagedNext bool

	// Epoch-delta cursors and per-epoch byte accumulators.
	lastSync, lastNow             float64
	lastComputeBusy, lastCopyBusy float64
	rawBytes, encodedBytes        uint64
}

// PipeEpoch reports one epoch of pipelined execution: the synchronous
// baseline (the device's serialized clock), the overlapped makespan, the
// per-stream busy time, and the H2D byte split.
type PipeEpoch struct {
	// SyncSeconds is the serialized epoch time: every kernel and raw copy
	// back to back (identical to the no-pipeline epoch time).
	SyncSeconds float64
	// PipeSeconds is the overlapped epoch time: the timeline makespan
	// advance, with copies hidden behind compute where dependencies allow.
	PipeSeconds float64
	// ComputeBusy and CopyBusy are the per-stream busy seconds.
	ComputeBusy, CopyBusy float64
	// RawBytes is the H2D payload; EncodedBytes what the sparsity codec
	// would move. Compressed reports whether the copy engine was timed on
	// encoded bytes.
	RawBytes, EncodedBytes uint64
	Compressed             bool
}

// WireBytes returns the bytes the copy engine was timed on.
func (p PipeEpoch) WireBytes() uint64 {
	if p.Compressed {
		return p.EncodedBytes
	}
	return p.RawBytes
}

// ExposedCopySeconds is the copy time not hidden behind compute: the
// makespan beyond the compute stream's busy time, clamped to the copy
// stream's busy time.
func (p PipeEpoch) ExposedCopySeconds() float64 {
	ex := p.PipeSeconds - p.ComputeBusy
	if ex < 0 {
		ex = 0
	}
	if ex > p.CopyBusy {
		ex = p.CopyBusy
	}
	return ex
}

// OverlapFraction is the share of copy-engine busy time hidden behind
// compute (0 when no copies ran).
func (p PipeEpoch) OverlapFraction() float64 {
	if p.CopyBusy <= 0 {
		return 0
	}
	return 1 - p.ExposedCopySeconds()/p.CopyBusy
}

// Speedup is the synchronous-over-pipelined epoch-time ratio.
func (p PipeEpoch) Speedup() float64 {
	if p.PipeSeconds <= 0 {
		return 1
	}
	return p.SyncSeconds / p.PipeSeconds
}

// CompressionRatio is raw over encoded H2D bytes (1 when nothing moved).
func (p PipeEpoch) CompressionRatio() float64 {
	if p.EncodedBytes == 0 {
		return 1
	}
	return float64(p.RawBytes) / float64(p.EncodedBytes)
}

// EnablePipeline turns on the asynchronous input pipeline: kernels route
// to a compute stream, input uploads to a dedicated copy-engine stream,
// with staged copies allowed to run up to depth iterations ahead of
// compute. compress times the copy engine on sparsity-encoded bytes
// instead of raw. A nil device or depth <= 0 leaves the engine
// synchronous. Call after construction-time kernels have been issued (the
// timeline starts at t = 0).
func (e *Engine) EnablePipeline(depth int, compress bool) {
	if e.dev == nil || depth <= 0 {
		return
	}
	tl := stream.New(e.dev)
	e.pipe = &pipeState{
		tl:       tl,
		compute:  tl.NewStream("compute"),
		copy:     tl.NewStream("copy engine"),
		depth:    depth,
		compress: compress,
		finish:   make([]float64, depth),
		lastSync: e.dev.ElapsedSeconds(),
	}
}

// MarkStaged tags the next iteration's inputs as pipeline-staged: its
// copies may start as soon as their staging slot frees (depth iterations
// back), rather than serializing with compute. The loader hand-off
// (models.Env.NextBatch) calls it; a no-op without a pipeline.
func (e *Engine) MarkStaged() {
	if e.pipe != nil {
		e.pipe.stagedNext = true
	}
}

// pipeBeginIteration records the previous iteration's compute finish in
// the staging ring and latches the staged mark for the new iteration.
func (e *Engine) pipeBeginIteration() {
	p := e.pipe
	if p == nil {
		return
	}
	if p.iter > 0 {
		p.finish[(p.iter-1)%p.depth] = p.compute.Cursor()
	}
	p.staged, p.stagedNext = p.stagedNext, false
	p.iter++
}

// pipeCopy routes one H2D transfer through the copy-engine stream. The
// device still accounts the RAW payload (baseline clock, Fig. 7/8
// sparsity stats); the copy stream is timed on wire bytes. Staged copies
// start as early as their staging slot allows; unstaged copies serialize
// behind compute, reproducing the synchronous ordering on the timeline.
func (e *Engine) pipeCopy(name string, raw, encoded uint64, zf float64) {
	p := e.pipe
	cur := p.iter - 1 // current 0-based iteration index
	floor := p.compute.Cursor()
	if p.staged {
		floor = 0
		if cur >= p.depth {
			floor = p.finish[cur%p.depth]
		}
	}
	wire := raw
	if p.compress {
		wire = encoded
	}
	p.copy.WaitUntil(floor)
	p.copy.CopyH2D(name, raw, wire, zf)
	// Compute consumes the upload: its next kernel waits for the copy.
	p.compute.Wait(p.copy.Record())
	p.rawBytes += raw
	p.encodedBytes += encoded
}

// encodedBytesOf models the sparsity codec over t's data: the byte size
// Encode would produce, rescaled to the device's storage element size
// (fp16 mode halves both raw and encoded words).
func (e *Engine) encodedBytesOf(t *tensor.Tensor) uint64 {
	size, _ := loader.EncodedSize(t.Data())
	return uint64(size) * uint64(e.fpElem()) / 4
}

// EpochPipeStats closes out one epoch of pipeline accounting and returns
// its deltas; ok is false when no pipeline is active. Counters feed the
// obs registry so metrics snapshots carry the stream plane.
func (e *Engine) EpochPipeStats() (PipeEpoch, bool) {
	p := e.pipe
	if p == nil {
		return PipeEpoch{}, false
	}
	now := p.tl.Now()
	sync := e.dev.ElapsedSeconds()
	pe := PipeEpoch{
		SyncSeconds:  sync - p.lastSync,
		PipeSeconds:  now - p.lastNow,
		ComputeBusy:  p.compute.Busy() - p.lastComputeBusy,
		CopyBusy:     p.copy.Busy() - p.lastCopyBusy,
		RawBytes:     p.rawBytes,
		EncodedBytes: p.encodedBytes,
		Compressed:   p.compress,
	}
	p.lastSync, p.lastNow = sync, now
	p.lastComputeBusy, p.lastCopyBusy = p.compute.Busy(), p.copy.Busy()
	p.rawBytes, p.encodedBytes = 0, 0

	e.m.computeBusy.Add(int64(pe.ComputeBusy * 1e9))
	e.m.copyBusy.Add(int64(pe.CopyBusy * 1e9))
	e.m.hiddenCopy.Add(int64((pe.CopyBusy - pe.ExposedCopySeconds()) * 1e9))
	e.m.h2dRaw.Add(int64(pe.RawBytes))
	e.m.h2dEncoded.Add(int64(pe.EncodedBytes))
	return pe, true
}

// SimClock returns the engine's simulated-seconds cursor: the overlapped
// timeline makespan when the pipeline is active, the device's serialized
// clock otherwise (0 without a device). DDP replica accounting keys on it.
func (e *Engine) SimClock() float64 {
	if e.pipe != nil {
		return e.pipe.tl.Now()
	}
	if e.dev == nil {
		return 0
	}
	return e.dev.ElapsedSeconds()
}

// StreamLanes snapshots the pipeline's per-stream lanes for trace export
// (nil without a pipeline).
func (e *Engine) StreamLanes() []stream.Lane {
	if e.pipe == nil {
		return nil
	}
	return e.pipe.tl.Lanes()
}
