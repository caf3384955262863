// Package partitioned is the graph-partitioned execution plane: the second
// strategy layered on the internal/exec core (the first being internal/ddp's
// bucketed ring-allreduce data parallelism). Instead of replicating the model
// and sharding batches, each simulated GPU owns one PartitionBFS part of a
// single large graph and the workloads exchange boundary (halo) rows across
// the cut every GNN layer — the ROC/NeuGraph-style scheme the paper says
// full-graph workloads need because "DDP cannot be used" for them (§V-E).
//
// Timing model: each worker runs its kernels on its own simulated device
// (the serialized device clock measures compute), and a two-stream
// stream.Timeline layers the interconnect on top — compute spans replayed
// between synchronization points on a "compute" stream, halo copies on a
// "halo" stream standing in for the copy engine. Overlapped mode fences each
// halo copy at the peers' boundary-publish points (boundary rows are
// computed first, so their transfer starts while interior rows still
// compute); serialized mode fences at the peers' full compute completion.
// Either way the next compute span waits on the halo copy's completion
// event, so exposed communication shows up as compute-lane idle time.
package partitioned

import (
	"fmt"

	"gnnmark/internal/ddp"
	"gnnmark/internal/exec"
	"gnnmark/internal/fault"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/nn"
	"gnnmark/internal/obs"
	"gnnmark/internal/stream"
)

// Halo-traffic metrics (no-ops until obs.Enable).
var (
	haloBytesC     = obs.GetCounter("halo.bytes_total")
	haloExchangesC = obs.GetCounter("halo.exchanges_total")
	haloExposedH   = obs.GetHistogram("halo.exposed_nanos", obs.DurationBuckets())
)

// Config parameterizes the partitioned plane.
type Config struct {
	// Overlap selects boundary-first overlapped halo exchange; false
	// serializes every exchange behind the slowest rank's full compute.
	Overlap bool
	// Monitors, when non-nil, attaches one health-event monitor per rank
	// (len must equal world). Monitors should be in immediate mode: a due
	// fatal event is raised at the rank's next kernel launch and surfaces
	// from Train as a rank-attributed error (exec.RankError wrapping
	// fault.FatalError); degraded events stretch kernel and halo times.
	// Event timestamps are training-relative: Train rebases each monitor's
	// origin so construction-time kernels cannot trip the schedule.
	Monitors []*fault.Monitor
}

// Factory builds one rank's partition workload and its Env (the simulated
// device is env.E.Device()). Every rank must be constructed from the same
// seed so the replicated model state agrees. Train calls it under gpu.Guard:
// a construction that fails may return the error or let the device raise
// it, and either way Train returns it unwrapped.
type Factory func(rank, world int) (models.PartWorkload, *models.Env, error)

// Result is the outcome of an executed partitioned training run.
type Result struct {
	GPUs   int
	Epochs int

	// EpochLosses folds per-rank losses per the workload's PartLossMode.
	EpochLosses []float64
	// EpochSeconds is the global per-epoch makespan (slowest rank).
	EpochSeconds []float64
	TotalSeconds float64

	// ComputeSeconds / HaloSeconds are the slowest rank's busy totals.
	ComputeSeconds float64
	HaloSeconds    float64
	// ExposedHaloSeconds is communication left on the critical path
	// (makespan minus the slowest rank's compute); OverlappedHaloSeconds
	// is halo time hidden under compute.
	ExposedHaloSeconds    float64
	OverlappedHaloSeconds float64

	// HaloBytes is the total wire traffic received across all ranks.
	HaloBytes uint64
	// GradSyncSeconds is the modeled allreduce time per rank (total).
	GradSyncSeconds float64
	GradBytesPerIt  uint64

	EdgeCut int
	Infos   []models.PartInfo
	// PeakBytes is each rank's device-allocator high-water mark.
	PeakBytes []int64
	// Lanes carries each rank's stream lanes for Chrome-trace export.
	Lanes [][]stream.Lane

	// Workers exposes the trained workloads for equivalence checks.
	Workers []models.PartWorkload
}

type engine struct {
	g      *exec.Group
	gather *exec.Gather
	cfg    Config
	world  int

	gradBytes uint64 // partial (reduced) parameter bytes
	ringBytes uint64 // per-rank ring-allreduce wire volume
	workers   []*worker
}

// xfer is the payload each rank publishes per collective: the value plus
// the timeline coordinates the receivers fence against.
type xfer struct {
	payload any
	done    float64 // compute-span end (serialized fence)
	publish float64 // boundary-rows-ready point (overlapped fence)
}

// gradMsg carries one rank's gradient snapshots for the end-of-iteration
// synchronization.
type gradMsg struct {
	partial    [][]float32
	replicated [][]float32
	done       float64
}

// epochMsg closes one epoch: the rank's loss and timeline position.
type epochMsg struct {
	loss float64
	at   float64
}

// worker is one rank: it implements models.PartComm, so the workload's
// collective tape ops call straight into the engine.
type worker struct {
	eng  *engine
	rank int
	w    models.PartWorkload
	env  *models.Env
	dev  *gpu.Device

	peer    exec.Peer
	tl      *stream.Timeline
	compute *stream.Stream
	halo    *stream.Stream
	info    models.PartInfo

	haloBytes uint64
	gradSecs  float64
	prevMax   float64 // previous epoch's global makespan cursor

	losses    []float64
	epochSecs []float64
}

// Rank implements models.PartComm.
func (wk *worker) Rank() int { return wk.rank }

// World implements models.PartComm.
func (wk *worker) World() int { return wk.eng.world }

// copySeconds models one halo copy over NVLink, on the interconnect model
// the DDP plane defines.
func (wk *worker) copySeconds(wireBytes uint64) float64 {
	if wireBytes == 0 || wk.eng.world <= 1 {
		return 0
	}
	bw := ddp.NVLinkBandwidthGBps * 1e9
	secs := float64(wireBytes)/bw + ddp.NVLinkLatencyUS*1e-6
	// Health-plane interconnect degradation stretches the halo wire time.
	return secs * wk.dev.TransferMult()
}

// closeComputeSpan replays the device time spent since the previous
// synchronization point onto the compute stream and returns the span's
// start and end on the timeline.
func (wk *worker) closeComputeSpan(name string) (start, end float64) {
	dur := wk.peer.ClockDelta()
	start = wk.compute.Push(name, "compute", dur, 0)
	return start, start + dur
}

// Exchange implements models.PartComm: an allgather of immutable payloads
// with the halo copy placed on this rank's halo stream.
func (wk *worker) Exchange(kind string, wireBytes uint64, payload any) []any {
	start, end := wk.closeComputeSpan(kind + ".compute")
	pub := start + wk.info.BoundaryFraction*(end-start)
	msgs, err := wk.eng.gather.Run(wk.rank, xfer{payload: payload, done: end, publish: pub})
	if err != nil {
		exec.Abort(err)
	}

	// Fence the copy: overlapped mode starts as soon as every peer has its
	// boundary rows out; serialized mode waits for the slowest full span.
	fence := 0.0
	for _, m := range msgs {
		x := m.(xfer)
		t := x.done
		if wk.eng.cfg.Overlap {
			t = x.publish
		}
		if t > fence {
			fence = t
		}
	}
	wk.halo.WaitUntil(fence)
	wk.halo.Push(kind, "halo", wk.copySeconds(wireBytes), wireBytes)
	copyEnd := wk.halo.Cursor()
	wk.compute.Wait(wk.halo.Record())
	wk.haloBytes += wireBytes
	haloBytesC.Add(int64(wireBytes))
	haloExchangesC.Inc()
	if exposed := copyEnd - end; exposed > 0 {
		haloExposedH.Observe(int64(exposed * 1e9))
	}

	out := make([]any, len(msgs))
	for i, m := range msgs {
		out[i] = m.(xfer).payload
	}
	return out
}

// onGradients is the end-of-iteration synchronization hook (Env.OnGradients):
// partial gradients reduce across ranks in rank order (bitwise-identical
// result everywhere), replicated gradients adopt rank 0's copy, and the
// modeled ring allreduce lands on the halo stream.
func (wk *worker) onGradients(float64) {
	partial, replicated := wk.w.SyncPlan()
	_, end := wk.closeComputeSpan("backward")

	msg := gradMsg{done: end}
	for _, p := range partial {
		msg.partial = append(msg.partial, snapshot(p.Grad.Data()))
	}
	for _, p := range replicated {
		msg.replicated = append(msg.replicated, snapshot(p.Grad.Data()))
	}
	msgs, err := wk.eng.gather.Run(wk.rank, msg)
	if err != nil {
		exec.Abort(err)
	}

	// The allreduce cannot start before the last backward finishes.
	fence := 0.0
	for _, m := range msgs {
		if d := m.(gradMsg).done; d > fence {
			fence = d
		}
	}
	wk.halo.WaitUntil(fence)
	ar := ddp.AllreduceSeconds(wk.eng.world, wk.eng.gradBytes)
	wk.halo.Push("grad.allreduce", "halo", ar, wk.eng.ringBytes)
	wk.compute.Wait(wk.halo.Record())
	wk.gradSecs += ar
	wk.haloBytes += wk.eng.ringBytes

	// Partial parameters: rank-order sum of the snapshots (same association
	// on every rank). Replicated parameters: adopt rank 0's gradient.
	for pi, p := range partial {
		dst := p.Grad.Data()
		copy(dst, msgs[0].(gradMsg).partial[pi])
		for r := 1; r < wk.eng.world; r++ {
			src := msgs[r].(gradMsg).partial[pi]
			for j := range dst {
				dst[j] += src[j]
			}
		}
	}
	for pi, p := range replicated {
		copy(p.Grad.Data(), msgs[0].(gradMsg).replicated[pi])
	}
}

func snapshot(src []float32) []float32 {
	out := make([]float32, len(src))
	copy(out, src)
	return out
}

// runEpochs is one worker goroutine's body. A device failure comes back
// from the epoch step as an error (the acceptance demo trains a graph that
// fits partitioned but not on one device) and the exec core names the rank.
func (wk *worker) runEpochs(epochs int) error {
	for ep := 0; ep < epochs; ep++ {
		loss, err := wk.env.Epoch(wk.w)
		if err != nil {
			return err
		}
		wk.closeComputeSpan("epoch.tail")

		msgs, err := wk.eng.gather.Run(wk.rank, epochMsg{loss: loss, at: wk.tl.Sync()})
		if err != nil {
			return err
		}
		combined, maxAt := 0.0, 0.0
		for r, m := range msgs {
			em := m.(epochMsg)
			switch wk.w.LossMode() {
			case models.PartLossSum:
				combined += em.loss
			case models.PartLossReplicated:
				if r == 0 {
					combined = em.loss
				}
			}
			if em.at > maxAt {
				maxAt = em.at
			}
		}
		wk.losses = append(wk.losses, combined)
		wk.epochSecs = append(wk.epochSecs, maxAt-wk.prevMax)
		wk.prevMax = maxAt
	}
	return nil
}

// Train runs executed graph-partitioned training across world simulated
// GPUs for the given number of epochs.
func Train(factory Factory, world, epochs int, cfg Config) (*Result, error) {
	if world < 1 {
		return nil, fmt.Errorf("partitioned: invalid world size %d", world)
	}
	if cfg.Monitors != nil && len(cfg.Monitors) != world {
		return nil, fmt.Errorf("partitioned: %d monitors for world size %d", len(cfg.Monitors), world)
	}
	g := exec.NewGroup(world)
	eng := &engine{g: g, gather: exec.NewGather(g), cfg: cfg, world: world}
	// Stop every rank's loader workers once the run is over.
	defer func() {
		for _, wk := range eng.workers {
			wk.env.Close()
		}
	}()
	for rank := 0; rank < world; rank++ {
		var w models.PartWorkload
		var env *models.Env
		var ferr error
		if err := gpu.Guard(func() { w, env, ferr = factory(rank, world) }); err != nil {
			return nil, err
		}
		if ferr != nil {
			return nil, ferr
		}
		dev := env.E.Device()
		if cfg.Monitors != nil {
			// Rebase the schedule to training time: the device clock already
			// holds construction kernels, so map clock-now to fleet time 0.
			cfg.Monitors[rank].SetOrigin(-dev.ElapsedSeconds())
			dev.AttachHealth(cfg.Monitors[rank])
		}
		wk := &worker{eng: eng, rank: rank, w: w, env: env, dev: dev}
		wk.tl = stream.New(dev)
		wk.compute = wk.tl.NewStream("compute")
		wk.halo = wk.tl.NewStream("halo")
		wk.peer = exec.Peer{Rank: rank, ClockFn: env.SimClock, TransferFn: dev.TransferSeconds}
		wk.peer.ClockDelta() // baseline: exclude construction-time clock
		wk.info = w.PartInfo()
		w.BindComm(wk)
		env.OnGradients = wk.onGradients
		eng.workers = append(eng.workers, wk)
	}
	partial, _ := eng.workers[0].w.SyncPlan()
	eng.gradBytes = uint64(nn.ParamBytes(partial))
	if world > 1 {
		eng.ringBytes = 2 * uint64(world-1) * eng.gradBytes / uint64(world)
	}

	for _, wk := range eng.workers {
		wk := wk
		g.Go(wk.rank, func() error { return wk.runEpochs(epochs) })
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}

	res := &Result{GPUs: world, Epochs: epochs}
	w0 := eng.workers[0]
	res.EpochLosses = w0.losses
	res.EpochSeconds = w0.epochSecs
	for _, s := range res.EpochSeconds {
		res.TotalSeconds += s
	}
	res.EdgeCut = w0.info.EdgeCut
	res.GradBytesPerIt = eng.gradBytes
	for _, wk := range eng.workers {
		if b := wk.compute.Busy(); b > res.ComputeSeconds {
			res.ComputeSeconds = b
		}
		if b := wk.halo.Busy(); b > res.HaloSeconds {
			res.HaloSeconds = b
		}
		res.HaloBytes += wk.haloBytes
		if wk.gradSecs > res.GradSyncSeconds {
			res.GradSyncSeconds = wk.gradSecs
		}
		res.Infos = append(res.Infos, wk.info)
		res.PeakBytes = append(res.PeakBytes, wk.dev.MemStats().PeakLive)
		res.Lanes = append(res.Lanes, wk.tl.Lanes())
		res.Workers = append(res.Workers, wk.w)
	}
	if exposed := res.TotalSeconds - res.ComputeSeconds; exposed > 0 {
		res.ExposedHaloSeconds = exposed
	}
	if hidden := res.HaloSeconds - res.ExposedHaloSeconds; hidden > 0 {
		res.OverlappedHaloSeconds = hidden
	}
	return res, nil
}
