package ddp

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"

	"gnnmark/internal/fault"
	"gnnmark/internal/models"
	"gnnmark/internal/nn"
)

// FleetFailure is the error a DDP round aborts with when the barrier
// leader latches fatal health events: the dead ranks, the events that
// killed them, and the work the failure wasted. The epochs the round
// completed before it are in the ClusterResult Train returns beside it.
type FleetFailure struct {
	// DeadRanks are the round-local rank indices latched fatal, ascending.
	DeadRanks []int
	// Events are the fatal events, index-aligned with DeadRanks.
	Events []fault.Event
	// LostSeconds is the wasted work of the failed epoch: its accumulated
	// critical-path compute and exposed communication up to and including
	// the failing iteration.
	LostSeconds float64
}

// Error implements error, naming every event that killed the round.
func (f *FleetFailure) Error() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "ddp: fleet failure (%d dead): ", len(f.DeadRanks))
	for i, ev := range f.Events {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "rank %d: %s", f.DeadRanks[i], ev)
	}
	return b.String()
}

// ElasticOptions parameterizes a fault-tolerant multi-round run.
type ElasticOptions struct {
	// Schedule is the fleet's health-event schedule, keyed by SLOT
	// (original device index, stable across re-sharding).
	Schedule []fault.Event
	// FailStop selects the baseline recovery strategy: instead of dropping
	// dead replicas and re-sharding, the whole world is rebuilt at full
	// size after ReplacementDelaySeconds (waiting out node replacement).
	FailStop bool
	// CheckpointPath, when set, persists epoch checkpoints through the
	// crash-safe nn.SaveTrainingFile path instead of keeping them in
	// memory only.
	CheckpointPath string
}

// Recovery costs in fleet time: an elastic restart is a rendezvous, a
// re-shard and a checkpoint reload (seconds); a fail-stop restart waits out
// the provisioning of a replacement node (minutes).
const (
	RestartOverheadSeconds  = 2.0
	ReplacementDelaySeconds = 120.0
)

// Round records one cluster incarnation of an elastic run.
type Round struct {
	// Slots are the fleet slots that participated (index = rank).
	Slots []int
	// Epochs is the number of epochs the round completed.
	Epochs int
	// Failure is the failure that ended the round, nil for the last round.
	Failure *FleetFailure
}

// ElasticResult is the outcome of a fault-tolerant run.
type ElasticResult struct {
	Rounds []Round
	// Survivors are the fleet slots alive at the end, ascending.
	Survivors []int
	// EpochsCompleted counts epochs whose results were kept (checkpointed
	// progress; epochs in flight at a failure are lost and retrained).
	EpochsCompleted int
	// Losses are the kept epochs' mean losses, in completion order.
	Losses []float64
	// UsefulSeconds is fleet time spent on kept epochs; LostSeconds is
	// work discarded at failures; OverheadSeconds is recovery cost
	// (restart or replacement). TotalSeconds is their sum.
	UsefulSeconds   float64
	LostSeconds     float64
	OverheadSeconds float64
	TotalSeconds    float64
	// Goodput is UsefulSeconds / TotalSeconds (1.0 for a healthy run).
	Goodput float64
	// Recoveries counts failures survived.
	Recoveries int
	// Replicas are the final round's trained workloads (index = rank).
	Replicas []models.Workload
}

// RunElastic trains epochs across a world-slot fleet under opts.Schedule,
// recovering from fatal events: detect at the barrier via the error latch,
// drop the dead replicas (or rebuild the world, in fail-stop mode), reload
// optimizer state from the last epoch checkpoint, re-shard batches across
// the new world, and resume. Every decision — which ranks die, when, what
// survives — is a pure function of (factory seeds, schedule), so a rerun
// with identical inputs reproduces surviving-rank weights bitwise. The
// factory receives each replica's fleet SLOT (the original device index)
// beside its round-local rank, so a survivor keeps its own device model no
// matter how ranks are renumbered after a recovery.
func RunElastic(factory ReplicaFactory, world, epochs int, opts ElasticOptions) (ElasticResult, error) {
	if world < 1 {
		return ElasticResult{}, fmt.Errorf("ddp: invalid world size %d", world)
	}
	if epochs < 1 {
		epochs = 1
	}
	maxRecoveries := 2 * world // a schedule cannot kill more often than that

	alive := make([]int, world)
	for i := range alive {
		alive[i] = i
	}
	schedule := append([]fault.Event(nil), opts.Schedule...)

	var res ElasticResult
	var ckpt []byte // last epoch-boundary training checkpoint (rank 0)
	origin := 0.0   // fleet time at which the next round's clocks start

	for res.EpochsCompleted < epochs {
		cfg := ClusterConfig{Monitors: make([]*fault.Monitor, len(alive))}
		for r, slot := range alive {
			m := fault.NewMonitor(fault.SlotEvents(schedule, slot), true)
			m.SetOrigin(origin)
			cfg.Monitors[r] = m
		}

		// The wrapped factory restores every new replica from the last
		// checkpoint, so all ranks resume from identical optimizer state.
		roundWorld := len(alive)
		roundReps := make([]models.Workload, roundWorld)
		wrapped := func(_, rank, w int) (models.Workload, *models.Env, error) {
			wl, env, err := factory(alive[rank], rank, w)
			if err != nil {
				return nil, nil, err
			}
			if ckpt != nil {
				if err := nn.Restore(wl.Optimizer(), ckpt); err != nil {
					env.Close()
					return nil, nil, fmt.Errorf("ddp: restoring replica %d: %w", rank, err)
				}
			}
			roundReps[rank] = wl
			return wl, env, nil
		}

		// Checkpoint at every epoch barrier: the leader runs this with all
		// workers blocked, so rank 0's state is stable.
		var ckptErr error
		cfg.OnEpochEnd = func(completed int) {
			opt := roundReps[0].Optimizer()
			ckpt = nn.Snapshot(opt)
			if opts.CheckpointPath != "" {
				if err := nn.SaveTrainingFile(opts.CheckpointPath, opt); err != nil {
					ckptErr = err
				}
			}
		}

		cr, err := Train(wrapped, roundWorld, epochs-res.EpochsCompleted, cfg)
		if ckptErr != nil {
			return res, fmt.Errorf("ddp: epoch checkpoint failed: %w", ckptErr)
		}
		var ff *FleetFailure
		if err != nil && !errors.As(err, &ff) {
			return res, err // not a health failure: surface unchanged
		}
		// One set of books whether the round finished or died: its
		// completed epochs are kept, and a failed round's in-flight epoch is
		// lost work.
		for _, s := range cr.EpochSeconds {
			res.UsefulSeconds += s
			origin += s
		}
		res.Losses = append(res.Losses, cr.Losses...)
		res.EpochsCompleted += len(cr.EpochSeconds)
		res.Rounds = append(res.Rounds, Round{Slots: append([]int(nil), alive...), Epochs: len(cr.EpochSeconds), Failure: ff})
		if ff == nil {
			res.Replicas = cr.Replicas
			break
		}
		res.LostSeconds += ff.LostSeconds
		origin += ff.LostSeconds
		res.Recoveries++
		if res.Recoveries > maxRecoveries {
			return res, fmt.Errorf("ddp: exceeded %d recoveries: %w", maxRecoveries, ff)
		}

		// Consume the fatal events that fired: a restarted round must not
		// re-latch them (the replaced or dropped device is gone).
		schedule = dropEvents(schedule, ff.Events)
		// The failed round's replicas are dead and the largest objects in
		// the process. Collect them before the next round builds theirs, so
		// a recovery's host footprint is one fleet, not two, whatever the
		// collector's pacing happened to be when the round died.
		runtime.GC()

		if opts.FailStop {
			// Fail-stop baseline: wait out replacement, rebuild at full
			// size from the checkpoint.
			res.OverheadSeconds += ReplacementDelaySeconds
			origin += ReplacementDelaySeconds
			continue
		}
		// Elastic: drop the dead slots, re-shard across survivors.
		dead := map[int]bool{}
		for _, r := range ff.DeadRanks {
			dead[alive[r]] = true
		}
		var next []int
		for _, slot := range alive {
			if !dead[slot] {
				next = append(next, slot)
			}
		}
		if len(next) == 0 {
			return res, fmt.Errorf("ddp: no survivors: %w", ff)
		}
		alive = next
		res.OverheadSeconds += RestartOverheadSeconds
		origin += RestartOverheadSeconds
	}

	res.Survivors = append([]int(nil), alive...)
	sort.Ints(res.Survivors)
	res.TotalSeconds = res.UsefulSeconds + res.LostSeconds + res.OverheadSeconds
	if res.TotalSeconds > 0 {
		res.Goodput = res.UsefulSeconds / res.TotalSeconds
	}
	return res, nil
}

// dropEvents removes the given events (matched by slot, type, and
// timestamp) from a schedule.
func dropEvents(schedule, consumed []fault.Event) []fault.Event {
	out := schedule[:0:0]
	for _, e := range schedule {
		drop := false
		for _, c := range consumed {
			if e.Slot == c.Slot && e.Type == c.Type && e.At == c.At {
				drop = true
				break
			}
		}
		if !drop {
			out = append(out, e)
		}
	}
	return out
}
