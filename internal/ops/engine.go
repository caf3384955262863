// Package ops implements the tensor operations of the GNNMark training
// stack. Every operation does three things: it validates shapes, it
// delegates the real float32 numerics to a pluggable CPU backend
// (internal/backend — serial or worker-pool parallel), and it lowers itself
// to one or more gpu.Kernel descriptors — instruction mix, FLOP/IOP counts,
// and (data-dependent) memory-access streams — launched on the attached
// simulated device. The kernel recipes are the calibration surface of the
// reproduction: they encode how DGL/PyTorch kernels for each operation
// class behave on a V100.
package ops

import (
	"gnnmark/internal/backend"
	"gnnmark/internal/gpu"
	"gnnmark/internal/graph"
	"gnnmark/internal/obs"
	"gnnmark/internal/tensor"
	"gnnmark/internal/vmem"
)

// Engine executes tensor ops against an optional simulated device. A nil
// device skips all kernel lowering (pure math mode, used by fast unit
// tests). The engine itself is a thin orchestrator: numerics run on the
// attached backend, lowering on the attached device. Engine is not safe for
// concurrent use, though engines sharing the parallel backend may run on
// separate goroutines (the backend's worker pool is process-wide).
type Engine struct {
	dev       *gpu.Device
	be        backend.Backend
	blocks    map[*tensor.Tensor]*vmem.Block
	csrBlocks map[*graph.CSR][2]*vmem.Block
	intBlocks map[*int32]*vmem.Block
	// seq keeps allocation order so bulk releases free blocks
	// deterministically (map iteration order would perturb the allocator's
	// free lists run to run and break golden determinism).
	seq []*vmem.Block
	// arena serves every op output and tape gradient on the host and takes
	// them back where the blocks above are freed: the host mirror of the
	// caching allocator.
	arena tensor.Arena
	// acc is the access list of the kernel being lowered (see accesses),
	// and gemmNames the engine's sgemm_MxKxN kernel names.
	acc       []gpu.Access
	gemmNames map[[3]int]string

	// Host observability (internal/obs): the engine's run, its handles and
	// span track there (nil without one), and the per-op span cursor.
	run    *obs.Run
	m      metrics
	track  *obs.Track
	opMark int64

	// pipe, when non-nil, routes kernels and input uploads through the
	// two-stream overlap timeline (pipeline.go). The device's serialized
	// clock still advances identically either way.
	pipe *pipeState
}

// New returns an engine bound to dev (which may be nil) using the default
// serial backend.
func New(dev *gpu.Device) *Engine {
	return NewWith(dev, backend.Default())
}

// NewWith returns an engine bound to dev (which may be nil) computing its
// numerics on be. It records into dev's run, or into obs.Process() (off
// unless e2ebench switched it on) without a device.
func NewWith(dev *gpu.Device, be backend.Backend) *Engine {
	if be == nil {
		be = backend.Default()
	}
	run := obs.Process()
	if dev != nil {
		run = dev.Config().Obs
	}
	return &Engine{
		dev:       dev,
		be:        be,
		blocks:    map[*tensor.Tensor]*vmem.Block{},
		csrBlocks: map[*graph.CSR][2]*vmem.Block{},
		intBlocks: map[*int32]*vmem.Block{},
		gemmNames: map[[3]int]string{},
		run:       run,
		m:         newMetrics(run),
		track:     run.Track("engine"),
		opMark:    obs.Nanos(),
	}
}

// Device returns the attached device (possibly nil).
func (e *Engine) Device() *gpu.Device { return e.dev }

// Arena returns the host arena the engine's outputs come from, for tape
// gradients and collectives: a tensor from it lives until the engine's
// next BeginIteration or Reset, or until released earlier.
func (e *Engine) Arena() *tensor.Arena { return &e.arena }

// Backend returns the numerics backend, for collectives that run a kernel's
// arithmetic over rows no single device holds (models/partcomm.go).
func (e *Engine) Backend() backend.Backend { return e.be }

// Reset returns every tracked device block to the caching allocator and
// every arena tensor to the arena, and clears the per-tensor, per-CSR, and
// per-index-buffer bookkeeping. Training loops call it between epochs;
// still-live tensors not from the arena are transparently re-assigned
// blocks on next use, with the free lists reissuing the same addresses.
func (e *Engine) Reset() { e.releaseAll() }

// BeginIteration marks the start of a training iteration: every device
// block acquired so far is returned to the allocator, and every arena
// tensor (op outputs, gradients kept to the boundary) to the arena,
// modeling the end of the previous iteration's activation lifetimes
// (PyTorch frees activations when the backward graph is consumed). Peak-live memory therefore measures
// the true per-iteration footprint, and the free lists hand the next
// iteration the same addresses — keeping the cache model's view of reuse
// intact.
func (e *Engine) BeginIteration() {
	e.releaseAll()
	e.pipeBeginIteration()
}

// releaseAll frees every tracked block in allocation order (deterministic),
// hands them all back to the allocator, which may then reuse the ones the
// frees merged away, clears the bookkeeping maps and releases the arena's
// tensors.
func (e *Engine) releaseAll() {
	e.arena.ReleaseAll()
	if e.dev != nil {
		for _, b := range e.seq {
			// Free is a no-op for blocks the frees before it merged away.
			e.dev.Free(b)
		}
		e.dev.Mem().Reclaim(e.seq)
	}
	e.seq = e.seq[:0]
	clear(e.blocks)
	clear(e.csrBlocks)
	clear(e.intBlocks)
}

// addr returns the device address of t, acquiring a block on first use.
func (e *Engine) addr(t *tensor.Tensor) uint64 {
	if e.dev == nil {
		return 0
	}
	if b, ok := e.blocks[t]; ok {
		return b.Addr()
	}
	shape := t.Shape()
	if shape == nil {
		shape = []int{} // a scalar reads "tensor[]" in the OOM report, not "tensor"
	}
	b := e.dev.AllocBlock(t.Size()*4, "tensor", shape...)
	e.blocks[t] = b
	e.seq = append(e.seq, b)
	return b.Addr()
}

// csrAddr returns device addresses for a CSR's RowPtr and ColIdx arrays,
// acquiring blocks on first use.
func (e *Engine) csrAddr(g *graph.CSR) (rowPtr, colIdx uint64) {
	if e.dev == nil {
		return 0, 0
	}
	if b, ok := e.csrBlocks[g]; ok {
		return b[0].Addr(), b[1].Addr()
	}
	rp := e.dev.AllocBlock(len(g.RowPtr)*4, "csr.rowptr")
	ci := e.dev.AllocBlock(len(g.ColIdx)*4, "csr.colidx")
	e.csrBlocks[g] = [2]*vmem.Block{rp, ci}
	e.seq = append(e.seq, rp, ci)
	return rp.Addr(), ci.Addr()
}

// intAddr returns a device address for an int32 buffer, keyed by its first
// element's identity (buffers are reused across iterations).
func (e *Engine) intAddr(idx []int32) uint64 {
	if e.dev == nil || len(idx) == 0 {
		return 0
	}
	key := &idx[0]
	if b, ok := e.intBlocks[key]; ok {
		return b.Addr()
	}
	b := e.dev.AllocBlock(len(idx)*4, "int32.index")
	e.intBlocks[key] = b
	e.seq = append(e.seq, b)
	return b.Addr()
}

// fpElem returns the floating-point element size under the device's
// precision mode (4 without a device).
func (e *Engine) fpElem() int {
	if e.dev == nil {
		return 4
	}
	return e.dev.FpElemBytes()
}

// accesses copies list into the engine's scratch, for a kernel's Accesses:
// as the device keeps a kernel's name, whatever a kernel points at escapes,
// and a list literal there would be an allocation per launch. launch
// consumes the list before it returns (DESIGN.md §8 "Host mirror").
func (e *Engine) accesses(list []gpu.Access) []gpu.Access {
	e.acc = append(e.acc[:0], list...)
	return e.acc
}

// launch submits a kernel when a device is attached.
func (e *Engine) launch(k *gpu.Kernel) {
	if e.dev == nil {
		return
	}
	if e.dev.Config().HalfPrecision {
		k.Mix.Fp16, k.Mix.Fp32 = k.Mix.Fp32, 0
	}
	if e.pipe != nil {
		e.pipe.compute.Launch(k)
	} else {
		e.dev.Submit(k, nil)
	}
	e.recordLaunch(k.Name, k.Class)
}

// CopyH2D models transferring t from host to device, recording its zero
// fraction for the sparsity characterization. Models call this for each
// batch's input tensors, mirroring the paper's modified-PyTorch hook.
func (e *Engine) CopyH2D(name string, t *tensor.Tensor) {
	if e.dev == nil {
		return
	}
	var start int64
	if e.track != nil {
		start = obs.Nanos()
	}
	bytes := uint64(t.Size() * e.fpElem())
	if e.pipe != nil {
		e.pipeCopy(name, bytes, e.encodedBytesOf(t), t.ZeroFraction())
	} else {
		e.dev.CopyH2D(name, bytes, t.ZeroFraction())
	}
	e.recordH2D(name, start, int64(bytes))
}

// CopyH2DInt models transferring an int32 index buffer host to device.
func (e *Engine) CopyH2DInt(name string, idx []int32) {
	if e.dev == nil {
		return
	}
	var start int64
	if e.track != nil {
		start = obs.Nanos()
	}
	zero := 0
	for _, v := range idx {
		if v == 0 {
			zero++
		}
	}
	zf := 0.0
	if len(idx) > 0 {
		zf = float64(zero) / float64(len(idx))
	}
	bytes := uint64(len(idx) * 4)
	if e.pipe != nil {
		// Index buffers skip the sparsity codec (it targets zero-heavy
		// float features); they still ride the copy-engine stream.
		e.pipeCopy(name, bytes, bytes, zf)
	} else {
		e.dev.CopyH2D(name, bytes, zf)
	}
	e.recordH2D(name, start, int64(bytes))
}
