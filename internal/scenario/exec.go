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

// faultSchedule compiles the events that lower to the fault plane and
// target plane (train: fleet slots, serve: serving replicas).
func (sc *Scenario) faultSchedule(plane string) []fault.Event {
	var out []fault.Event
	for _, ev := range sc.Events {
		if t := eventTypeOf(ev.Type); t.lower == toFault && ev.Plane == plane {
			out = append(out, fault.Event{Slot: ev.Slot, Type: t.fault, At: ev.At, Code: ev.Code, Factor: ev.Factor, Msg: ev.Msg})
		}
	}
	return out
}

// lowered returns the events that compile to `to`, in file order.
func (sc *Scenario) lowered(to lowering) []EventSpec {
	var out []EventSpec
	for _, ev := range sc.Events {
		if eventTypeOf(ev.Type).lower == to {
			out = append(out, ev)
		}
	}
	return out
}

// runConfig lowers a resolved scenario onto the core run configuration
// shared by every executor branch.
func (sc *Scenario) runConfig(slots []gpu.Config) core.RunConfig {
	w := sc.Workload
	return core.RunConfig{
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
}

// Execute compiles the scenario onto the execution planes and runs it:
// training (single-device, elastic DDP, or partitioned, per the fleet and
// parallelism), then the serving phase when declared. The entire run is a
// pure function of (scenario file, seed): reruns produce byte-identical
// digests. Assertions are NOT checked here — see Run.
func Execute(sc *Scenario) (*Outcome, error) { return sc.execute(obs.NewRun()) }

// execute is Execute recording into run. Every plane records into the
// execution's own run, so metric assertions have data and concurrent
// executions share no number. Nothing obs records feeds the digest.
func (sc *Scenario) execute(run *obs.Run) (*Outcome, error) {
	sc, plane, cfg, err := sc.resolve()
	if err != nil {
		return nil, err
	}
	cfg.Obs = run

	out := &Outcome{Scenario: sc.Name, Seed: sc.Seed, World: len(cfg.Devices), Plane: plane.name}
	if err := plane.run(sc, cfg, out); err != nil {
		return nil, err
	}

	if sc.Serve != nil && !out.OOM && !out.Aborted {
		if err := sc.runServe(cfg, out); err != nil {
			return nil, err
		}
	}
	// Only the serving phase reads the trained replica; an Outcome a caller
	// keeps must not pin its model, dataset and device state with it.
	out.trained = nil

	out.Metrics = cfg.Obs.Snapshot()
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

// runSingle executes the single-device branch, one models.Env.Train call
// per segment: it is the only branch that supports loader kills, which
// checkpoint the run at an epoch boundary, tear the pipeline down, and
// rebuild it with one fewer loader worker — the degraded-input-pipeline arm
// of the chaos matrix.
func (sc *Scenario) runSingle(cfg core.RunConfig, out *Outcome) error {
	health := sc.faultSchedule(PlaneTrain)
	kills := sc.lowered(toLoaderKill)
	sort.SliceStable(kills, func(i, j int) bool { return kills[i].At < kills[j].At })

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

	// A segment trains until the run is done or a loader kill is due at an
	// epoch boundary before the last, timed on its own replica's SimClock.
	cum := 0.0 // training-relative fleet time across segments
	for {
		log, err := rep.Env.Train(rep.W, cfg.Epochs-out.CompletedEpochs, rep.Env.SimClock, func(ep int, _, secs float64) (bool, error) {
			cum += secs
			return len(kills) > 0 && cum >= kills[0].At && out.CompletedEpochs+ep+1 < cfg.Epochs, nil
		})
		out.PeakBytes = max(out.PeakBytes, rep.Dev.MemStats().PeakLive)
		out.Losses = append(out.Losses, log.Losses...)
		out.EpochSeconds = append(out.EpochSeconds, log.EpochSeconds...)
		out.CompletedEpochs += len(log.Losses)
		if err != nil {
			failOutcome(out, err)
			return nil
		}
		if out.CompletedEpochs == cfg.Epochs {
			break
		}

		// A due loader kill rebuilds the pipeline at this epoch boundary
		// with one fewer worker: checkpoint, tear down, rebuild, restore.
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
		rep = next
		if err := nn.Restore(rep.W.Optimizer(), ckpt); err != nil {
			return fmt.Errorf("scenario: restore after a loader kill: %w", err)
		}
	}
	out.TotalSeconds = cum
	out.UsefulSeconds = cum
	out.Goodput = 1
	out.trained = rep.W
	return nil
}

// runElastic executes the DDP branch under the elastic controller; with an
// empty schedule it degenerates to a healthy single-round run.
func (sc *Scenario) runElastic(cfg core.RunConfig, out *Outcome) error {
	res, runErr := ddp.RunElastic(core.DDPFactory(cfg), cfg.GPUs, cfg.Epochs,
		ddp.ElasticOptions{Schedule: sc.faultSchedule(PlaneTrain)})
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
	sched := sc.faultSchedule(PlaneTrain)
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
	out.Losses = res.Losses
	out.EpochSeconds = res.EpochSeconds
	out.CompletedEpochs = len(res.Losses)
	out.TotalSeconds = res.TotalSeconds
	out.UsefulSeconds = res.TotalSeconds
	out.Goodput = 1
	out.PeakBytes = slices.Max(res.PeakBytes)
	return nil
}
