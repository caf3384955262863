package ddp

import (
	"fmt"

	"gnnmark/internal/exec"
	"gnnmark/internal/fault"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/nn"
	"gnnmark/internal/obs"
)

// Host-observability handles for the executed DDP engine. Recording
// no-ops until obs.Enable.
var (
	// obsBucketExposedNanos is the per-bucket exposed (non-overlapped)
	// communication time on the modeled timeline, in nanoseconds.
	obsBucketExposedNanos = obs.GetHistogram("ddp.bucket_exposed_nanos", obs.DurationBuckets())
	// obsReduceHostNanos is the leader's real host wall time per
	// reduce-iteration (ring reduction + write-back across replicas).
	obsReduceHostNanos = obs.GetHistogram("ddp.reduce_host_nanos", obs.DurationBuckets())
	obsIterationsTotal = obs.GetCounter("ddp.iterations_total")
	obsAllreduceBytes  = obs.GetCounter("ddp.allreduce_bytes_total")
)

// This file is the executed replication engine: Train really trains G
// replicas of the workload on G simulated devices — one goroutine each —
// and really averages their gradients through a bucketed ring-allreduce,
// so the multi-GPU result is a trained model whose weights can be checked
// against a single-device run.
//
// The worker lifecycle, lockstep barrier, and abort machinery live in
// internal/exec (shared with the graph-partitioned strategy); this file is
// the data-parallel strategy layered on that core.
//
// Per iteration, each replica trains its rank's batch shard (models.Env.Shard)
// and its backward pass ends in the Env.OnGradients hook, where the replica
// flattens its gradients into size-capped buckets (PyTorch Reducer-style,
// filled in reverse parameter order) and enters a lockstep barrier. The last
// arriver reduces every bucket across replicas in a fixed ring association
// order, writes the fp32 averages back into all replicas' gradient tensors,
// and advances the communication timeline: each bucket's ring transfer is
// overlapped against the remaining backward compute, so only the part that
// outlives the backward pass (plus the reducer hook overhead) is exposed on
// the critical path. Everything downstream of the hook — gradient clipping
// and the optimizer step — then runs on identical gradients, keeping the
// replicas' weights bitwise in sync, exactly like DistributedDataParallel.

// DefaultBucketCapBytes is the reducer bucket size cap. PyTorch defaults to
// 25 MB; our workloads are scaled down ~100x in parameter count, so the cap
// scales down with them to preserve realistic multi-bucket pipelining.
const DefaultBucketCapBytes = 256 << 10

// ClusterConfig parameterizes an executed DDP run.
type ClusterConfig struct {
	// BucketCapBytes caps reducer buckets (0 = DefaultBucketCapBytes).
	BucketCapBytes int

	// Monitors attaches one deferred fault monitor per rank (len == world,
	// or nil for a healthy fleet). Degraded events throttle the rank's
	// device directly; fatal events are detected by the barrier LEADER, in
	// rank order, against each rank's simulated clock at the gradient
	// barrier — a deterministic point, so the set of dead ranks per
	// iteration is a pure function of the schedule, never of goroutine
	// interleaving (at world 1, by runSingle's end hook at each epoch
	// boundary). On detection the round aborts with a *FleetFailure; the
	// elastic controller (RunElastic) books the epochs Train's result still
	// carries, re-shards and resumes.
	Monitors []*fault.Monitor
	// OnEpochEnd, when non-nil, is invoked by the epoch-barrier leader
	// after each completed epoch with the count of epochs completed this
	// run. Every worker is blocked in the barrier at that point, so the
	// callback may read any replica's parameters race-free — it is the
	// elastic controller's checkpoint hook.
	OnEpochEnd func(completed int)
}

// ReplicaFactory builds replica `rank` of a `world`-replica cluster on the
// device model of fleet slot `slot`: a fresh workload on a fresh
// device/engine, constructed from the same seed at every rank, with
// env.Rank/env.World set to the given values *before* the workload is built
// (batch sharding can happen at construction time). Every call must return
// fully independent instances. A plain run passes slot == rank; the
// elastic controller keeps a survivor's slot stable while its rank is
// renumbered, so heterogeneous fleets stay on their own device models.
// Train calls it under gpu.Guard: a construction that fails may return the
// error or let the device raise it, and either way Train returns it
// unwrapped.
type ReplicaFactory func(slot, rank, world int) (models.Workload, *models.Env, error)

// ClusterResult is the outcome of one executed multi-replica run; partial
// when Train fails (see Train).
type ClusterResult struct {
	GPUs       int
	Replicated bool // no Env.Shard call: full batch on every replica
	Iterations int  // optimizer steps per epoch
	Buckets    int  // reducer buckets per iteration
	// GradBytesPerIt is the fp32 gradient payload all-reduced per iteration.
	GradBytesPerIt uint64
	// EpochLog is the per-epoch record: Losses averaged over replicas,
	// EpochSeconds the modeled wall time (per-iteration max-replica compute
	// plus exposed, non-overlapped communication) and HostPhases the mean
	// per replica (empty unless obs.Enabled at run time).
	models.EpochLog
	// TotalSeconds sums EpochSeconds.
	TotalSeconds float64
	// Speedup is the first entry's TotalSeconds over this one's within an
	// ExecutedStrongScaling series; 0 outside a series.
	Speedup float64
	// ComputeSeconds is the critical-path compute across all epochs
	// (max over replicas, per iteration).
	ComputeSeconds float64
	// CommSeconds is total communication busy time (ring transfers, hop
	// latencies, reducer hook; plus replicated-input H2D contention).
	CommSeconds float64
	// ExposedCommSeconds is the part of CommSeconds not hidden under
	// backward compute; OverlappedCommSeconds is the hidden remainder.
	ExposedCommSeconds    float64
	OverlappedCommSeconds float64
	// Replicas exposes the trained workloads (index = rank) so callers can
	// verify weight equivalence against single-device training.
	Replicas []models.Workload
	// PeakMemBytes is the highest per-device peak-live device memory across
	// replicas (each simulated GPU owns its own caching allocator).
	PeakMemBytes int64
}

// replica is the per-goroutine state of one simulated GPU.
type replica struct {
	exec.Peer
	w       models.Workload
	env     *models.Env
	buckets []nn.GradBucket
	flat    [][]float32 // per-bucket flattened local gradients

	loss float64 // the epoch in flight's mean loss
}

// run is the data-parallel strategy state layered on the exec core; the
// group's mutex orders every cross-replica access (gradient buffers
// included), which is what makes the leader's writes into blocked
// replicas' tensors race-free.
type run struct {
	cfg  ClusterConfig
	g    *exec.Group
	reps []*replica
	// res is the round's one record: the leader adds each iteration's
	// communication and each finished epoch to it, and Train returns it
	// whether the round finished or died.
	res *ClusterResult

	// Per-iteration data, indexed by rank, valid when the barrier is full.
	backward []float64
	compute  []float64

	// The epoch in flight (leader-written).
	epochCompute float64 // critical-path compute
	epochExposed float64
	scratch      []float32 // reduce buffer, sized to largest bucket

	// Host observability (leader-written under the group mutex).
	track  *obs.Track // spans of the leader's reduction work
	phases *obs.PhaseMeter
}

// checkFatal is the leader's fatal-event sweep at a gradient barrier: it
// queries every rank's monitor, in rank order, at the rank's own simulated
// clock (its fleet origin plus the clock recorded entering this barrier).
// Both inputs are deterministic at a barrier, so reruns latch identical
// failures. A non-nil *FleetFailure means the round must abort; the barrier
// latches it, so no later leader runs.
func (st *run) checkFatal() error {
	var dead []int
	var events []fault.Event
	for r, m := range st.cfg.Monitors {
		if m == nil {
			continue
		}
		if ev := m.FatalBy(m.Origin() + st.reps[r].LastClock()); ev != nil {
			dead = append(dead, r)
			events = append(events, *ev)
		}
	}
	if dead == nil {
		return nil
	}
	// The failed iteration's work is wasted: everything the epoch had
	// accumulated plus this iteration's critical-path compute. All inputs
	// are barrier-deterministic.
	maxCompute := 0.0
	for r := range st.reps {
		if st.compute[r] > maxCompute {
			maxCompute = st.compute[r]
		}
	}
	return &FleetFailure{
		DeadRanks:   dead,
		Events:      events,
		LostSeconds: st.epochCompute + maxCompute + st.epochExposed,
	}
}

// linkDeratedBandwidth derates the ring-allreduce bandwidth by the worst
// NVLink degradation active across ranks at this barrier — the ring
// crosses every replica's links, so its slowest link paces the collective.
func (st *run) linkDeratedBandwidth(bw float64) float64 {
	mons := st.cfg.Monitors
	if mons == nil {
		return bw
	}
	worst := 1.0
	for r, m := range mons {
		if m == nil {
			continue
		}
		if f := m.LinkFactorBy(m.Origin() + st.reps[r].LastClock()); f > worst {
			worst = f
		}
	}
	return bw / worst
}

// Train trains `epochs` epochs of `world` replicas built by factory and
// returns the executed timeline and the trained replicas. With world == 1 it
// degenerates to plain single-device training (no hooks, no barriers) —
// the baseline the speedup claims divide by. A failure once the replicas
// are built — a *FleetFailure included — comes back with the header (GPUs
// through GradBytesPerIt; Replicated once an epoch finished) and the epochs
// the round completed (EpochSeconds, Losses, HostPhases); the totals are
// then partial, and Replicas is nil so a dead fleet stays collectable.
func Train(factory ReplicaFactory, world, epochs int, cfg ClusterConfig) (ClusterResult, error) {
	if world < 1 {
		return ClusterResult{}, fmt.Errorf("ddp: invalid world size %d", world)
	}
	if cfg.BucketCapBytes == 0 {
		cfg.BucketCapBytes = DefaultBucketCapBytes
	}
	if cfg.Monitors != nil && len(cfg.Monitors) != world {
		return ClusterResult{}, fmt.Errorf("ddp: %d monitors for %d ranks", len(cfg.Monitors), world)
	}
	reps := make([]*replica, world)
	// Stop every replica's loader workers once the run is over.
	defer func() {
		for _, rep := range reps {
			if rep != nil {
				rep.env.Close()
			}
		}
	}()
	for r := range reps {
		// Construction runs under gpu.Guard: the footprint includes
		// preprocessing, so a build can OOM.
		rep := &replica{}
		var ferr error
		if err := gpu.Guard(func() { rep.w, rep.env, ferr = factory(r, r, world) }); err != nil {
			return ClusterResult{}, err
		}
		if ferr != nil {
			return ClusterResult{}, ferr
		}
		rep.Rank = r
		// SimClock is the overlapped timeline makespan when the input
		// pipeline is active, the device's serialized clock otherwise.
		rep.ClockFn = rep.env.SimClock
		if dev := rep.env.E.Device(); dev != nil {
			rep.TransferFn = dev.TransferSeconds
		}
		rep.buckets = nn.BuildGradBuckets(rep.w.Params(), cfg.BucketCapBytes)
		rep.flat = make([][]float32, len(rep.buckets))
		for i, b := range rep.buckets {
			rep.flat[i] = make([]float32, b.Elems)
		}
		reps[r] = rep
	}
	for r := 1; r < world; r++ {
		if got, want := reps[r].w.IterationsPerEpoch(), reps[0].w.IterationsPerEpoch(); got != want {
			return ClusterResult{}, fmt.Errorf("ddp: replica %d has %d iterations/epoch, rank 0 has %d (factory not seed-identical?)", r, got, want)
		}
		if got, want := len(reps[r].buckets), len(reps[0].buckets); got != want {
			return ClusterResult{}, fmt.Errorf("ddp: replica %d has %d buckets, rank 0 has %d", r, got, want)
		}
	}
	for _, rep := range reps {
		if dev := rep.env.E.Device(); dev != nil {
			// Construction may launch preprocessing kernels; measure
			// training only.
			dev.ResetClock()
			if cfg.Monitors != nil {
				// Deferred monitors only throttle; fatality is decided at
				// deterministic points (checkFatal, runSingle's end hook).
				dev.AttachHealth(cfg.Monitors[rep.Rank])
			}
		}
	}

	w0 := reps[0].w
	res := ClusterResult{
		GPUs:           world,
		Iterations:     w0.IterationsPerEpoch(),
		Buckets:        len(reps[0].buckets),
		GradBytesPerIt: uint64(nn.ParamBytes(w0.Params())),
	}
	var err error
	if world == 1 {
		err = runSingle(reps[0], epochs, cfg, &res)
	} else {
		err = runFleet(reps, epochs, cfg, &res)
	}
	if err != nil {
		return res, err
	}
	for _, rep := range reps {
		res.Replicas = append(res.Replicas, rep.w)
		if dev := rep.env.E.Device(); dev != nil {
			if peak := dev.MemStats().PeakLive; peak > res.PeakMemBytes {
				res.PeakMemBytes = peak
			}
		}
	}
	return res, nil
}

// runSingle is the world == 1 path. Its epoch seconds are differences of
// the replica's clock, not sums of per-iteration deltas like runFleet's, and
// Fig. 9's baseline and one-survivor elastic rounds are pinned to those
// bits. It still honors the fault plane (a one-survivor elastic round must
// keep throttling and can still die): degraded events throttle through the
// attached monitor, and its end hook checks fatal events against the
// simulated clock at each epoch boundary, before the epoch is booked.
func runSingle(rep *replica, epochs int, cfg ClusterConfig, res *ClusterResult) error {
	var mon *fault.Monitor
	if cfg.Monitors != nil {
		mon = cfg.Monitors[0]
	}
	now := 0.0
	log, err := rep.env.Train(rep.w, epochs, rep.Clock, func(ep int, _, secs float64) (bool, error) {
		now = rep.Clock()
		if mon != nil {
			if ev := mon.FatalBy(mon.Origin() + now); ev != nil {
				return false, &FleetFailure{DeadRanks: []int{0}, Events: []fault.Event{*ev}, LostSeconds: secs}
			}
		}
		if cfg.OnEpochEnd != nil {
			cfg.OnEpochEnd(ep + 1)
		}
		return false, nil
	})
	res.EpochLog = log
	switch err.(type) {
	case nil:
		res.ComputeSeconds, res.TotalSeconds = now, now
		return nil
	case *FleetFailure:
		return err
	}
	return &exec.RankError{Rank: 0, Err: err}
}

// runFleet trains world >= 2 replicas in lockstep, one worker goroutine
// each: every backward pass ends in a gradient barrier whose leader
// reduces the buckets (reduceIteration), and every epoch in a barrier whose
// leader books it into res (finishEpoch).
func runFleet(reps []*replica, epochs int, cfg ClusterConfig, res *ClusterResult) error {
	world := len(reps)
	st := &run{
		cfg:      cfg,
		g:        exec.NewGroup(world),
		reps:     reps,
		res:      res,
		backward: make([]float64, world),
		compute:  make([]float64, world),
		track:    obs.NewTrack("ddp-reduce"),
		phases:   obs.NewPhaseMeter(),
	}
	maxElems := 0
	for _, b := range reps[0].buckets {
		if b.Elems > maxElems {
			maxElems = b.Elems
		}
	}
	st.scratch = make([]float32, maxElems)
	for _, rep := range reps {
		rep.env.OnGradients = func(backwardSecs float64) {
			for i := range rep.buckets {
				rep.buckets[i].FlattenGrads(rep.flat[i])
			}
			iterCompute := rep.ClockDelta()
			st.g.Do(func() {
				st.backward[rep.Rank] = backwardSecs
				st.compute[rep.Rank] = iterCompute
			})
			// A *FleetFailure the leader returns is latched by the barrier
			// itself; every rank gets it here and unwinds out of the hook.
			if err := st.g.Barrier(st.reduceIteration); err != nil {
				exec.Abort(err)
			}
		}
		st.g.Go(rep.Rank, func() error {
			_, err := rep.env.Train(rep.w, epochs, nil, func(_ int, loss, _ float64) (bool, error) {
				rep.loss = loss
				// A failed barrier is already latched: stop without an error.
				return st.g.Barrier(st.finishEpoch) != nil, nil
			})
			return err
		})
	}
	if err := st.g.Wait(); err != nil {
		return err
	}
	res.OverlappedCommSeconds = res.CommSeconds - res.ExposedCommSeconds
	if res.OverlappedCommSeconds < 0 {
		// Accumulation rounding can leave a ~1e-19 negative remainder.
		res.OverlappedCommSeconds = 0
	}
	for _, s := range res.EpochSeconds {
		res.TotalSeconds += s
	}
	return nil
}

// reduceIteration is the leader's work once every replica has flattened its
// gradients and entered the barrier: average every bucket across replicas
// with a fixed-association ring reduction, write the averages back into all
// replicas' gradient tensors, and advance the overlap timeline.
func (st *run) reduceIteration() error {
	if err := st.checkFatal(); err != nil {
		// A rank died this iteration: skip the reduction (its result would
		// be discarded) and fail the round.
		return err
	}
	reps := st.reps
	world := len(reps)
	buckets := reps[0].buckets
	var hostStart int64
	if st.track != nil {
		hostStart = obs.Nanos()
	}

	// Compute timeline inputs.
	maxBackward, maxCompute := 0.0, 0.0
	for r := 0; r < world; r++ {
		if st.backward[r] > maxBackward {
			maxBackward = st.backward[r]
		}
		if st.compute[r] > maxCompute {
			maxCompute = st.compute[r]
		}
	}
	totalBytes := 0
	for _, b := range buckets {
		totalBytes += b.Bytes()
	}

	bw := st.linkDeratedBandwidth(NVLinkBandwidthGBps * 1e9)
	commBusy, finish, cum := 0.0, 0.0, 0

	for bi := range buckets {
		n := buckets[bi].Elems
		avg := st.scratch[:n]
		ringReduce(avg, bi, world, func(r int) []float32 { return reps[r].flat[bi] })
		inv := float32(1) / float32(world)
		for i := range avg {
			avg[i] *= inv
		}
		for r := 0; r < world; r++ {
			reps[r].buckets[bi].UnflattenGrads(avg)
		}

		// Overlap timeline: bucket bi becomes ready when the backward pass
		// has produced its share of the gradient bytes (buckets fill in
		// reverse parameter order, tracking backward progress); its ring
		// allreduce of 2(G-1) steps, each moving bytes/G, then queues on
		// the serial NVLink channel behind the previous bucket.
		cum += buckets[bi].Bytes()
		ready := maxBackward * float64(cum) / float64(totalBytes)
		g := float64(world)
		t := 2 * (g - 1) * (float64(buckets[bi].Bytes())/g/bw + NVLinkLatencyUS*1e-6)
		start := ready
		if finish > start {
			start = finish
		}
		expBefore := finish - maxBackward
		if expBefore < 0 {
			expBefore = 0
		}
		finish = start + t
		expAfter := finish - maxBackward
		if expAfter < 0 {
			expAfter = 0
		}
		// This bucket's contribution to exposed (non-overlapped) comm on
		// the modeled timeline.
		obsBucketExposedNanos.Observe(int64((expAfter - expBefore) * 1e9))
		commBusy += t
	}

	hook := HookOverheadUS * 1e-6
	exposed := finish - maxBackward
	if exposed < 0 {
		exposed = 0
	}
	exposed += hook
	commBusy += hook

	st.epochCompute += maxCompute
	st.res.CommSeconds += commBusy
	st.res.ExposedCommSeconds += exposed
	st.epochExposed += exposed
	obsIterationsTotal.Inc()
	obsAllreduceBytes.Add(int64(totalBytes))
	if st.track != nil {
		now := obs.Nanos()
		st.track.Record("reduce_iteration", "comm", hostStart, now-hostStart)
		obsReduceHostNanos.Observe(now - hostStart)
	}
	return nil
}

// ringReduce fills dst with the element-wise sum of every rank's buffer,
// accumulating in the ring's chunk-rotation order: chunk c's reduce-scatter
// starts at rank (c+1) % world, so the association order is a pure function
// of (bucket, chunk, world) — identical no matter which goroutine leads,
// which is what keeps repeated runs byte-identical.
func ringReduce(dst []float32, bucket, world int, flat func(rank int) []float32) {
	n := len(dst)
	chunk := (n + world - 1) / world
	for c := 0; c < world; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		first := (bucket + c + 1) % world
		src := flat(first)[lo:hi]
		copy(dst[lo:hi], src)
		for s := 1; s < world; s++ {
			src := flat((first + s) % world)[lo:hi]
			d := dst[lo:hi]
			for i := range d {
				d[i] += src[i]
			}
		}
	}
}

// finishEpoch is the leader's work at the epoch barrier: fold in the tail
// compute after the last gradient sync (optimizer steps of the final
// iteration) and, for replicated inputs, the host-link contention of every
// replica pulling the same batches (the paper's PSAGE "unnecessary
// communication"), then book the epoch into the round's record.
func (st *run) finishEpoch() error {
	res := st.res
	tail, contention, loss := 0.0, 0.0, 0.0
	for _, rep := range st.reps {
		if d := rep.ClockDelta(); d > tail {
			tail = d
		}
		if d := rep.TransferDelta(); d > contention {
			contention = d
		}
		loss += rep.loss
	}
	st.epochCompute += tail
	// A workload that never called Env.Shard (paper §V-E, PSAGE) trained the
	// full batch at every rank: gradients still synchronize — all cost, no
	// compute reduction. GW and TLSTM shard only inside TrainEpoch, so this
	// is first known here.
	res.Replicated = !st.reps[0].env.Sharded()
	if res.Replicated {
		extra := float64(len(st.reps)-1) * contention
		res.CommSeconds += extra
		res.ExposedCommSeconds += extra
		st.epochExposed += extra
	}
	res.EpochSeconds = append(res.EpochSeconds, st.epochCompute+st.epochExposed)
	res.ComputeSeconds += st.epochCompute
	res.Losses = append(res.Losses, loss/float64(len(st.reps)))
	st.epochCompute, st.epochExposed = 0, 0
	if st.cfg.OnEpochEnd != nil {
		st.cfg.OnEpochEnd(len(res.EpochSeconds))
	}
	// Phase counters aggregated over all replicas this epoch; report the
	// mean per replica against the epoch's wall interval.
	if b, ok := st.phases.Epoch(len(st.reps)); ok {
		res.HostPhases = append(res.HostPhases, b)
	}
	return nil
}

// ExecutedStrongScaling trains one epoch at each world size (the global
// batch fixed, shards shrinking) and returns the modeled timeline per size,
// with Speedup relative to the series' first entry. Replicas is cleared so
// a series does not pin trained models.
func ExecutedStrongScaling(factory ReplicaFactory, gpuCounts []int) ([]ClusterResult, error) {
	results := make([]ClusterResult, 0, len(gpuCounts))
	for _, g := range gpuCounts {
		cr, err := Train(factory, g, 1, ClusterConfig{})
		if err != nil {
			return nil, err
		}
		cr.Replicas = nil
		results = append(results, cr)
		if base := results[0].TotalSeconds; base > 0 {
			results[len(results)-1].Speedup = base / cr.TotalSeconds
		}
	}
	return results, nil
}
