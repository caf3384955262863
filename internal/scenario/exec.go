package scenario

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"gnnmark/internal/core"
	"gnnmark/internal/ddp"
	"gnnmark/internal/fault"
	"gnnmark/internal/gpu"
	"gnnmark/internal/nn"
	"gnnmark/internal/obs"
	"gnnmark/internal/partitioned"
	"gnnmark/internal/vmem"
)

// Scenario-wide execution defaults: short epochs and the fast sampling
// tier, because committed scenarios run on every CI push.
const (
	defaultEpochs = 2
	defaultWarps  = 512
)

// eventTypeByName maps DSL mnemonics onto the fault plane's event types.
var eventTypeByName = map[string]fault.EventType{
	EvXID:         fault.XID,
	EvECCSBE:      fault.ECCSBE,
	EvECCDBE:      fault.ECCDBE,
	EvThermal:     fault.ThermalThrottle,
	EvNVLink:      fault.NVLinkDegrade,
	EvReplicaLoss: fault.ReplicaLoss,
}

// faultEvent compiles a train-plane event spec onto the fault plane.
func (ev EventSpec) faultEvent() fault.Event {
	t, ok := eventTypeByName[ev.Type]
	if !ok {
		panic(fmt.Sprintf("scenario: event %q has no fault-plane type", ev.Type))
	}
	code := ev.Code
	if t == fault.XID && code == 0 {
		code = 79 // "GPU has fallen off the bus", the canonical fatal XID
	}
	return fault.Event{Slot: ev.Slot, Type: t, At: ev.At, Code: code, Factor: ev.Factor, Msg: ev.Msg}
}

// trainSchedule collects the train-plane fault events (everything except
// loader kills, which compile onto the pipeline instead).
func (sc *Scenario) trainSchedule() []fault.Event {
	var out []fault.Event
	for _, ev := range sc.Events {
		if ev.Plane == PlaneTrain && ev.Type != EvLoaderKill {
			out = append(out, ev.faultEvent())
		}
	}
	return out
}

// runConfig lowers the scenario onto the core run configuration shared by
// every executor branch.
func (sc *Scenario) runConfig(slots []gpu.Config) core.RunConfig {
	w := sc.Workload
	cfg := core.RunConfig{
		Workload:      w.Key,
		Dataset:       w.Dataset,
		Epochs:        w.Epochs,
		Seed:          sc.Seed,
		SampledWarps:  w.Warps,
		Backend:       w.Backend,
		PipelineDepth: w.PipelineDepth,
		LoaderWorkers: w.LoaderWorkers,
		CompressH2D:   w.CompressH2D,
		Overlap:       w.Overlap,
		Devices:       slots,
		GPUs:          len(slots),
		Parallelism:   w.Parallelism,
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = defaultEpochs
	}
	if cfg.SampledWarps == 0 {
		cfg.SampledWarps = defaultWarps
	}
	return cfg
}

// Execute compiles the scenario onto the execution planes and runs it:
// training (single-device, elastic DDP, or partitioned, per the fleet and
// parallelism), then the serving phase when declared. The entire run is a
// pure function of (scenario file, seed): reruns produce byte-identical
// digests. Assertions are NOT checked here — see Run.
func Execute(sc *Scenario) (*Outcome, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	slots, err := sc.Fleet.Slots()
	if err != nil {
		return nil, err
	}

	// Observability is on for the whole run so metric assertions have data;
	// prior state is restored afterwards. Nothing obs records feeds the
	// digest.
	wasEnabled := obs.Enabled()
	obs.Enable()
	obs.Reset()
	if !wasEnabled {
		defer obs.Disable()
	}

	out := &Outcome{Scenario: sc.Name, Seed: sc.Seed, World: len(slots)}
	cfg := sc.runConfig(slots)
	switch {
	case len(slots) == 1:
		out.Plane = "single"
		err = sc.runSingle(cfg, out)
	case sc.Workload.Parallelism == "partitioned":
		out.Plane = "partitioned"
		err = sc.runPartitioned(cfg, out)
	default:
		out.Plane = "ddp"
		err = sc.runElastic(cfg, out)
	}
	if err != nil {
		return nil, err
	}

	if sc.Serve != nil && !out.OOM && !out.Aborted {
		if err := sc.runServe(cfg, slots, out); err != nil {
			return nil, err
		}
	}
	// Only the serving phase reads the trained replica; an Outcome a caller
	// keeps must not pin its model, dataset and device state with it.
	out.trained = nil

	out.Metrics = obs.Default().Snapshot()
	out.Digest = out.ComputeDigest()
	return out, nil
}

// failOutcome records a training failure on the outcome — the one place a
// failure is classified, whichever fleet raised it: a simulated OOM
// anywhere in the chain (bare from a single device, rank-wrapped from a
// DDP or partitioned worker) is OOM, everything else an abort.
func failOutcome(out *Outcome, err error) {
	var oom *vmem.OOMError
	if errors.As(err, &oom) {
		out.OOM = true
	} else {
		out.Aborted = true
	}
	out.FailMsg = err.Error()
}

// runSingle executes the single-device branch by hand: it is the only
// branch that supports loader-kill events, which checkpoint the run at an
// epoch boundary, tear the pipeline down, and rebuild it with one fewer
// loader worker — the degraded-input-pipeline arm of the chaos matrix.
func (sc *Scenario) runSingle(cfg core.RunConfig, out *Outcome) error {
	health := sc.trainSchedule()
	var kills []EventSpec
	for _, ev := range sc.Events {
		if ev.Plane == PlaneTrain && ev.Type == EvLoaderKill {
			kills = append(kills, ev)
		}
	}
	sort.SliceStable(kills, func(i, j int) bool { return kills[i].At < kills[j].At })

	// Resolve the live worker count so a kill can decrement it (the loader
	// defaults to min(depth, 4) workers when unset).
	if cfg.LoaderWorkers == 0 && cfg.PipelineDepth > 0 {
		cfg.LoaderWorkers = min(cfg.PipelineDepth, 4)
	}

	// build constructs one training segment: a fresh replica measuring
	// training only, with the health monitor attached training-relative at
	// fleet time `origin`. A segment the device could not hold (construction
	// can OOM: the footprint includes preprocessing) ends the run with a
	// recorded outcome and a nil replica; anything else is a scenario error.
	build := func(origin float64) (*core.Replica, error) {
		rep, err := core.NewReplica(cfg, 0, 0, 1)
		var oom *vmem.OOMError
		if errors.As(err, &oom) {
			failOutcome(out, err)
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		rep.Rebase()
		m := fault.NewMonitor(fault.SlotEvents(health, 0), false)
		m.SetOrigin(origin)
		rep.Dev.AttachHealth(m)
		return rep, nil
	}

	rep, err := build(0)
	if rep == nil {
		return err
	}
	defer func() { rep.Env.Close() }()

	cum := 0.0      // training-relative fleet time across segments
	segClock := 0.0 // current segment's clock at the last epoch boundary
	for ep := 0; ep < cfg.Epochs; ep++ {
		loss, err := rep.Epoch()
		out.PeakBytes = max(out.PeakBytes, rep.Dev.MemStats().PeakLive)
		if err != nil {
			failOutcome(out, err)
			return nil
		}
		now := rep.Env.SimClock()
		epochSec := now - segClock
		segClock = now
		cum += epochSec
		out.Losses = append(out.Losses, loss)
		out.EpochSeconds = append(out.EpochSeconds, epochSec)
		out.CompletedEpochs++

		// A due loader kill rebuilds the pipeline at this epoch boundary
		// with one fewer worker: checkpoint, tear down, rebuild, restore.
		if len(kills) > 0 && cum >= kills[0].At && ep+1 < cfg.Epochs {
			kills = kills[1:]
			ckpt := nn.Snapshot(rep.W.Optimizer())
			rep.Env.Close()
			if cfg.LoaderWorkers > 1 {
				cfg.LoaderWorkers--
			}
			next, err := build(cum)
			if next == nil {
				return err
			}
			rep, segClock = next, 0
			if err := nn.Restore(rep.W.Optimizer(), ckpt); err != nil {
				return fmt.Errorf("scenario: loader-kill restore: %w", err)
			}
		}
	}
	out.TotalSeconds = cum
	out.UsefulSeconds = cum
	out.Goodput = 1
	out.trained = rep.W
	return nil
}

// runElastic executes the DDP branch. Every multi-device DDP scenario runs
// under the elastic controller — with an empty schedule it degenerates to
// a healthy single-round run — so fatal events always mean recovery, never
// a crash.
func (sc *Scenario) runElastic(cfg core.RunConfig, out *Outcome) error {
	res, runErr := ddp.RunElastic(core.DDPFactory(cfg), cfg.GPUs, cfg.Epochs,
		ddp.ElasticOptions{Schedule: sc.trainSchedule()})
	out.Losses = res.Losses
	out.CompletedEpochs = res.EpochsCompleted
	out.UsefulSeconds = res.UsefulSeconds
	out.LostSeconds = res.LostSeconds
	out.OverheadSeconds = res.OverheadSeconds
	out.TotalSeconds = res.TotalSeconds
	out.Goodput = res.Goodput
	out.Recoveries = res.Recoveries
	out.Survivors = res.Survivors
	if runErr != nil {
		failOutcome(out, runErr)
		return nil
	}
	if len(res.Replicas) > 0 {
		out.trained = res.Replicas[0]
	}
	return nil
}

// runPartitioned executes the graph-partitioned branch with immediate-mode
// health monitors: a fatal event aborts the whole run with a clean, named
// error (the partitioned plane has no elastic recovery).
func (sc *Scenario) runPartitioned(cfg core.RunConfig, out *Outcome) error {
	factory, err := core.PartitionedFactory(cfg, nil)
	if err != nil {
		return err
	}
	sched := sc.trainSchedule()
	world := cfg.GPUs
	monitors := make([]*fault.Monitor, world)
	for r := 0; r < world; r++ {
		monitors[r] = fault.NewMonitor(fault.SlotEvents(sched, r), false)
	}
	res, runErr := partitioned.Train(factory, world, cfg.Epochs, partitioned.Config{
		Overlap:  cfg.Overlap,
		Monitors: monitors,
	})
	if runErr != nil {
		failOutcome(out, runErr)
		return nil
	}
	out.Losses = res.EpochLosses
	out.EpochSeconds = res.EpochSeconds
	out.CompletedEpochs = res.Epochs
	out.TotalSeconds = res.TotalSeconds
	out.UsefulSeconds = res.TotalSeconds
	out.Goodput = 1
	out.PeakBytes = slices.Max(res.PeakBytes)
	return nil
}
