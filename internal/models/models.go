// Package models implements the eight GNNMark workloads (paper Table I):
//
//	PSAGE  - PinSAGE recommendation on a bipartite hetero graph (MVL/NWP)
//	STGCN  - spatio-temporal GCN for traffic forecasting (METR-LA)
//	DGCN   - DeepGCN (ResGCN) molecular property prediction (ogbg-molhiv)
//	GW     - GraphWriter knowledge-graph-to-text transformer (AGENDA)
//	KGNNL  - hierarchical 1-2-GNN protein classification (PROTEINS)
//	KGNNH  - hierarchical 1-2-3-GNN protein classification (PROTEINS)
//	ARGA   - adversarially regularized graph autoencoder (Cora/...)
//	TLSTM  - child-sum Tree-LSTM sentiment classification (SST)
//
// Every model trains for real (losses decrease) while emitting the kernel
// stream the characterization pipeline profiles.
package models

import (
	"math/rand"
	"runtime"
	"sync/atomic"

	"gnnmark/internal/autograd"
	"gnnmark/internal/gpu"
	"gnnmark/internal/loader"
	"gnnmark/internal/nn"
	"gnnmark/internal/obs"
	"gnnmark/internal/ops"
)

// Phase counters: total host nanoseconds per training phase, accumulated
// across iterations (and, under DDP, across replicas). Recording no-ops
// until obs.Enable.
var (
	phaseDataC      = obs.PhaseCounter(obs.PhaseDataLoad)
	phaseForwardC   = obs.PhaseCounter(obs.PhaseForward)
	phaseBackwardC  = obs.PhaseCounter(obs.PhaseBackward)
	phaseOptimizerC = obs.PhaseCounter(obs.PhaseOptimizer)
	phaseAllreduceC = obs.PhaseCounter(obs.PhaseAllreduce)
	iterationsC     = obs.GetCounter("phase.iterations_total")

	// PSAGE's serving memo (serve.go): sampled requests answered from it,
	// sampled afresh, and the items it came to keep.
	memoHitsC   = obs.GetCounter("psage.serve.memo.hits")
	memoMissesC = obs.GetCounter("psage.serve.memo.misses")
	memoKeptC   = obs.GetCounter("psage.serve.memo.kept")
)

// Env bundles what a workload needs to run: the op engine (device-attached
// or nil), a seeded RNG, and an iteration hook the profiler uses to tag
// transfer samples per training iteration.
type Env struct {
	E   *ops.Engine
	RNG *rand.Rand
	// OnIteration, when non-nil, is invoked once per training iteration
	// (minibatch) before its transfers are issued.
	OnIteration func()
	// Training selects whether Step backpropagates and updates parameters
	// (true, default) or leaves the iteration forward-only — the paper's
	// future-work inference-characterization mode, using the trained (or
	// initialized) models to drive inference studies.
	Training bool
	// Rank and World identify this replica under executed data-parallel
	// training (ddp.Train). World <= 1 means single-device: Shard is the
	// identity and OnGradients never fires from the cluster. Models built
	// from the same seed at any rank are otherwise identical.
	Rank, World int
	// OnGradients, when non-nil, is invoked by Step after the backward pass
	// and before gradient clipping and the optimizer step — exactly where
	// PyTorch's DDP reducer hook sits. backwardSeconds is the simulated
	// device time the backward pass took (0 without a device). The hook may
	// mutate the parameters' gradients in place (gradient averaging).
	OnGradients func(backwardSeconds float64)

	// Pipeline configures the asynchronous input pipeline for workloads
	// built against this Env: prefetch depth and worker count for their
	// loaders, and whether H2D transfers are timed on sparsity-encoded
	// bytes. Zero value means synchronous (inline) loading.
	Pipeline PipelineConfig

	// Host-phase accounting (internal/obs): the currently open phase's
	// counter, its start stamp, and its span scope on the engine's track.
	phaseCtr   *obs.Counter
	phaseStart int64
	phaseScope obs.Scope

	// loaders tracks every loader built through NewLoader so Close can stop
	// their workers.
	loaders []*loader.Loader
	// sharded latches the first Shard call. Atomic: with the input pipeline
	// on, STGCN's batch producer shards on loader workers.
	sharded atomic.Bool
}

// PipelineConfig selects the input-pipeline mode for an Env's workloads.
type PipelineConfig struct {
	// Depth is the number of batches staged ahead of compute (0 =
	// synchronous inline loading).
	Depth int
	// Workers is the loader worker-goroutine count (0 = loader default).
	Workers int
	// CompressH2D times the copy engine on sparsity-encoded bytes.
	CompressH2D bool
}

// NewEnv builds an Env with a fresh seeded RNG, in training mode.
func NewEnv(e *ops.Engine, seed int64) *Env {
	return &Env{E: e, RNG: rand.New(rand.NewSource(seed)), Training: true}
}

func (env *Env) iter() {
	// A new iteration begins: the previous iteration's activations are
	// dead, so their device blocks return to the caching allocator (and
	// the free lists reissue the same addresses to this iteration).
	if env.E != nil {
		env.E.BeginIteration()
	}
	if env.OnIteration != nil {
		env.OnIteration()
	}
	// The open phase here is the data_load tail begun at the previous
	// Step (batch selection between iterations); forward work starts now.
	iterationsC.Inc()
	env.beginPhase(obs.PhaseForward, phaseForwardC)
}

// beginPhase closes the open phase (if any) and opens the named one:
// its wall time accrues to ctr and a span nests on the engine's track.
// A single atomic load when observability is disabled.
func (env *Env) beginPhase(name string, ctr *obs.Counter) {
	if !obs.Enabled() {
		return
	}
	env.FinishPhase()
	env.phaseCtr = ctr
	env.phaseStart = obs.Nanos()
	if env.E != nil {
		env.E.MarkHostBoundary()
		env.phaseScope = env.E.Track().Begin(name, obs.CatPhase)
	}
}

// FinishPhase closes the currently open host phase, crediting its wall
// time. Train calls it at epoch boundaries to close the trailing data_load
// window; it is a no-op when no phase is open.
func (env *Env) FinishPhase() {
	if env.phaseCtr == nil {
		return
	}
	env.phaseCtr.Add(obs.Nanos() - env.phaseStart)
	env.phaseScope.End()
	env.phaseCtr = nil
	env.phaseScope = obs.Scope{}
}

// EpochLog is the per-epoch record of a run, one entry per booked epoch,
// whichever plane trained it.
type EpochLog struct {
	// Losses is the mean training loss per epoch.
	Losses []float64
	// EpochSeconds is simulated time per epoch.
	EpochSeconds []float64
	// HostPhases is the per-epoch host wall-clock phase breakdown; empty
	// unless obs.Enabled when training began.
	HostPhases []obs.PhaseBreakdown
}

// Train is the one epoch loop every execution plane trains through. Each of
// up to `epochs` epochs is an "epoch" span on the engine's track around
// w.TrainEpoch and the trailing host phase, all under gpu.Guard, followed by
// E.Reset. The epoch's seconds are the difference of two clock readings,
// the first epoch's taken from zero (a nil clock books none). end sees the
// epoch's index, loss and seconds before the epoch is booked: an error fails
// the run with it unbooked, stop ends the run with it booked. Train returns
// the booked epochs with any error — end's, or the simulated OOM or fatal
// health event the device raised inside an epoch (the very *vmem.OOMError
// or *fault.FatalError), after which the Env's device is dead.
func (env *Env) Train(w interface{ TrainEpoch() float64 }, epochs int, clock func() float64,
	end func(ep int, loss, secs float64) (stop bool, err error)) (EpochLog, error) {
	var log EpochLog
	phases := obs.NewPhaseMeter()
	last := 0.0
	for ep := 0; ep < epochs; ep++ {
		var loss float64
		if err := gpu.Guard(func() {
			scope := env.E.Track().Begin("epoch", obs.CatPhase)
			loss = w.TrainEpoch()
			env.FinishPhase()
			scope.End()
		}); err != nil {
			return log, err
		}
		env.E.Reset()
		var secs float64
		if clock != nil {
			now := clock()
			secs, last = now-last, now
		}
		stop, err := end(ep, loss, secs)
		if err != nil {
			return log, err
		}
		log.Losses = append(log.Losses, loss)
		if clock != nil {
			log.EpochSeconds = append(log.EpochSeconds, secs)
		}
		if b, ok := phases.Epoch(1); ok {
			log.HostPhases = append(log.HostPhases, b)
		}
		if stop {
			break
		}
	}
	return log, nil
}

// Step finishes one iteration: in training mode it zeroes the gradients of
// opt's parameters, backpropagates the scalar loss, optionally clips their
// global gradient norm (clipNorm > 0), and applies opt; in inference mode it
// is a no-op, so the device trace contains only the forward pass.
func (env *Env) Step(t *autograd.Tape, loss *autograd.Var, opt nn.Optimizer, clipNorm float32) {
	if !env.Training {
		// Forward-only mode: the iteration ends here; time until the next
		// iter() is batch selection.
		env.beginPhase(obs.PhaseDataLoad, phaseDataC)
		return
	}
	params := opt.Params()
	nn.ZeroGrads(params)
	env.beginPhase(obs.PhaseBackward, phaseBackwardC)
	// Reading the clock waits for the device model to catch up, so only the
	// DDP hook, which needs the backward pass's seconds, reads it.
	var before float64
	if env.OnGradients != nil {
		before = env.SimClock()
	}
	t.Backward(loss)
	if env.OnGradients != nil {
		// Under ddp.Train the hook flattens gradients, waits at the
		// lockstep barrier, and receives the averaged buckets — the host
		// analogue of the allreduce.
		env.beginPhase(obs.PhaseAllreduce, phaseAllreduceC)
		env.OnGradients(env.SimClock() - before)
	}
	env.beginPhase(obs.PhaseOptimizer, phaseOptimizerC)
	if clipNorm > 0 {
		nn.ClipGradNorm(params, clipNorm)
	}
	opt.Step()
	// Until the next iter() the host is selecting/assembling the next
	// batch (or closing the epoch).
	env.beginPhase(obs.PhaseDataLoad, phaseDataC)
}

// SimClock returns the engine's simulated elapsed seconds — the overlapped
// timeline makespan under the input pipeline, the device's serialized
// clock otherwise (0 when the engine runs deviceless).
func (env *Env) SimClock() float64 {
	if env.E == nil {
		return 0
	}
	return env.E.SimClock()
}

// NewLoader builds an input loader with this Env's pipeline configuration
// and registers it for Close. Workloads call it at construction time; with
// Pipeline.Depth 0 the loader materializes batches inline and spawns no
// goroutines.
func (env *Env) NewLoader(produce loader.Producer) *loader.Loader {
	l := loader.New(loader.Config{Depth: env.Pipeline.Depth, Workers: env.Pipeline.Workers}, produce)
	env.loaders = append(env.loaders, l)
	return l
}

// NextBatch pulls the next staged batch from l and marks the coming
// iteration's uploads as pipeline-staged: their copies may start ahead of
// compute on the copy-engine stream.
func (env *Env) NextBatch(l *loader.Loader) *loader.Batch {
	b := l.Next()
	if env.E != nil {
		env.E.MarkStaged()
	}
	return b
}

// Close stops the workers of every loader built through NewLoader and drops
// the engine's host arena. Safe to call more than once; a no-op for a
// synchronous Env that never ran an op.
func (env *Env) Close() {
	for _, l := range env.loaders {
		l.Close()
	}
	env.loaders = nil
	// The arena held a whole iteration's tensors, and the GC goal rose to
	// match. Left to the pacer, that dead memory would stay in use while
	// whatever the process builds next faults in fresh pages; collected now,
	// it is free for it.
	if env.E != nil && env.E.Arena().Drop() {
		runtime.GC()
	}
}

// Shard returns this replica's contiguous sub-range of the half-open global
// batch range [lo, hi). Ranges split into World near-equal chunks (sizes
// differ by at most one, earlier ranks get the extra item — the same layout
// as torch's DistributedSampler over a contiguous permutation). When the
// range holds fewer items than World, trailing ranks wrap to the first item
// (DistributedSampler-style padding) so every replica still issues a
// non-empty iteration and the lockstep allreduce never starves. With
// World <= 1 it is the identity.
func (env *Env) Shard(lo, hi int) (int, int) {
	env.sharded.Store(true)
	if env.World <= 1 || hi-lo <= 0 {
		return lo, hi
	}
	n, w, r := hi-lo, env.World, env.Rank
	if n < w {
		if r < n {
			return lo + r, lo + r + 1
		}
		return lo, lo + 1
	}
	base, rem := n/w, n%w
	start := lo + r*base + min(r, rem)
	size := base
	if r < rem {
		size++
	}
	return start, start + size
}

// Sharded reports whether a workload built against this Env has called
// Shard. One that never does — PSAGE's batch sampler (paper §V-E), ARGA's
// full graph, the DNN — trains the whole batch at every rank, so under
// data parallelism its input is replicated.
func (env *Env) Sharded() bool { return env.sharded.Load() }

// Workload is the uniform interface of all eight models. A model type writes
// TrainEpoch and IterationsPerEpoch; Params and Optimizer come from the
// trainer it embeds. Whether it shards under data parallelism is not
// declared: Env.Sharded reports whether it called Env.Shard.
type Workload interface {
	// Params returns all trainable parameters, in the optimizer's order.
	Params() []*autograd.Param
	// TrainEpoch runs one epoch and returns the mean loss.
	TrainEpoch() float64
	// IterationsPerEpoch returns the number of optimizer steps per epoch.
	IterationsPerEpoch() int
	// Optimizer returns the live optimizer driving TrainEpoch. It holds all
	// the trainable state there is — parameters, moments, step counters — so
	// nn.Snapshot of it is what carries a trained model into a fresh replica.
	Optimizer() nn.Optimizer
}

// Checkpointable is Workload under its old name, kept because e2ebench
// asserts to it; every workload exposes its optimizer.
type Checkpointable = Workload

// trainer is the part of a model every model shares: its Env and the
// optimizer built over its parameters. Embedding it supplies Workload's
// Params and Optimizer and Servable's MarkHostBoundary.
type trainer struct {
	env *Env
	opt nn.Optimizer
}

// Optimizer implements Workload.
func (tr *trainer) Optimizer() nn.Optimizer { return tr.opt }

// Params implements Workload: the optimizer holds every trainable parameter.
func (tr *trainer) Params() []*autograd.Param { return tr.opt.Params() }

// MarkHostBoundary implements Servable.
func (tr *trainer) MarkHostBoundary() { tr.env.E.MarkHostBoundary() }
