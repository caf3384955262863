package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"time"

	"gnnmark/internal/autograd"
	"gnnmark/internal/ddp"
	"gnnmark/internal/exec"
	"gnnmark/internal/fault"
	"gnnmark/internal/partitioned"
)

// chaosCfg is the shared scenario of the chaos matrix: ARGA on cora, the
// one workload both execution planes support, kept small enough that the
// full matrix stays in test-suite territory.
func chaosCfg() RunConfig {
	return RunConfig{Workload: "ARGA", Epochs: 2, Seed: 7, SampledWarps: 256}
}

// chaosEvents builds a one-event schedule of the given type against slot
// at fleet time t, through the same Injector surface production schedules
// use.
func chaosEvents(typ fault.EventType, slot int, at float64) []fault.Event {
	var in fault.Injector
	switch typ {
	case fault.XID:
		in.InjectXIDAt(slot, 79, "GPU has fallen off the bus", at)
	case fault.ECCSBE:
		in.InjectECCAt(slot, false, "corrected SBE", at)
	case fault.ECCDBE:
		in.InjectECCAt(slot, true, "uncorrectable DBE", at)
	case fault.ThermalThrottle:
		in.InjectThermalAt(slot, 0, at)
	case fault.NVLinkDegrade:
		in.InjectNVLinkAt(slot, 0, at)
	case fault.ReplicaLoss:
		in.InjectReplicaLossAt(slot, "node preempted", at)
	default:
		panic("chaos: unhandled event type " + typ.String())
	}
	return in.Schedule()
}

// paramsHash folds every parameter value into one FNV-1a word for bitwise
// weight comparisons across runs.
func paramsHash(ps []*autograd.Param) uint64 {
	h := fnv.New64a()
	for _, p := range ps {
		for _, v := range p.Value.Data() {
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// chaosPartitioned runs the 2-way partitioned arm under sched (nil =
// healthy), with immediate-mode monitors: a due fatal event panics at the
// rank's next kernel launch.
func chaosPartitioned(t *testing.T, sched []fault.Event) (*partitioned.Result, error) {
	t.Helper()
	factory, err := PartitionedFactory(chaosCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := partitioned.Config{Overlap: true}
	if sched != nil {
		for slot := 0; slot < 2; slot++ {
			cfg.Monitors = append(cfg.Monitors,
				fault.NewMonitor(fault.SlotEvents(sched, slot), false))
		}
	}
	return partitioned.Train(factory, 2, chaosCfg().Epochs, cfg)
}

// chaosElastic runs the 2-way elastic DDP arm under sched (nil = healthy).
func chaosElastic(t *testing.T, sched []fault.Event) ddp.ElasticResult {
	t.Helper()
	factory := DDPFactory(chaosCfg())
	res, err := ddp.RunElastic(factory, 2, chaosCfg().Epochs, ddp.ElasticOptions{Schedule: sched})
	if err != nil {
		t.Fatalf("elastic run failed: %v", err)
	}
	return res
}

// TestChaosMatrix is the headline chaos harness: every health-event type x
// {elastic DDP, partitioned} x its severity arm. Fatal events must end in a
// clean recovery (elastic) or a clean, named, rank-attributed abort
// (partitioned) — never a hang (a watchdog panics the run), never corrupted
// numerics (degraded arms pin losses and weights bitwise against the
// healthy baseline). Every faulty outcome replays bitwise at the same
// schedule.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is slow")
	}

	// Healthy baselines, shared across the matrix.
	base := chaosElastic(t, nil)
	if base.Goodput != 1 || base.Recoveries != 0 {
		t.Fatalf("healthy elastic baseline not clean: %+v", base)
	}
	epochT := base.UsefulSeconds / float64(chaosCfg().Epochs)
	// Fatal-event timestamps compare against barrier-time device clocks,
	// which advance with compute only (allreduce time is modeled on top),
	// so probe one healthy epoch's critical-path compute.
	probeFactory := DDPFactory(chaosCfg())
	probe, err := ddp.Train(probeFactory, 2, 1, ddp.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	computeT := probe.ComputeSeconds
	partBase, err := chaosPartitioned(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	partBaseHash := paramsHash(partBase.Workers[0].Params())

	// Every event type: the values in declaration order, up to the first
	// one String has no mnemonic for.
	for typ := fault.EventType(0); !strings.HasPrefix(typ.String(), "event("); typ++ {
		typ := typ
		sev := fault.Classify(typ)

		t.Run(fmt.Sprintf("ddp/%s/%s", typ, sev), func(t *testing.T) {
			watchdog := time.AfterFunc(2*time.Minute, func() {
				panic("chaos case hung: ddp/" + typ.String())
			})
			defer watchdog.Stop()

			switch sev {
			case fault.Fatal:
				// Kill rank/slot 1 mid-epoch-2 (after the epoch-1
				// checkpoint): elastic recovery must drop it, re-shard, and
				// still finish every epoch within one restart's overhead.
				sched := chaosEvents(typ, 1, computeT*1.5)
				a := chaosElastic(t, sched)
				if a.Recoveries != 1 {
					t.Fatalf("recoveries = %d, want 1", a.Recoveries)
				}
				if len(a.Survivors) != 1 || a.Survivors[0] != 0 {
					t.Fatalf("survivors = %v, want [0]", a.Survivors)
				}
				if a.EpochsCompleted != chaosCfg().Epochs {
					t.Fatalf("completed %d epochs, want %d", a.EpochsCompleted, chaosCfg().Epochs)
				}
				if a.LostSeconds <= 0 {
					t.Fatal("mid-epoch kill must lose work")
				}
				// Recovery deadline: exactly one elastic restart, nothing
				// else, on the overhead ledger.
				if a.OverheadSeconds != ddp.RestartOverheadSeconds {
					t.Fatalf("overhead = %v, want one restart (%v)",
						a.OverheadSeconds, ddp.RestartOverheadSeconds)
				}
				if a.Goodput <= 0 || a.Goodput >= 1 {
					t.Fatalf("goodput = %v, want in (0, 1)", a.Goodput)
				}
				// Bitwise replay of the whole faulty scenario.
				b := chaosElastic(t, sched)
				if a.UsefulSeconds != b.UsefulSeconds || a.LostSeconds != b.LostSeconds ||
					a.OverheadSeconds != b.OverheadSeconds || a.Goodput != b.Goodput {
					t.Fatalf("replay accounting diverged:\n%+v\nvs\n%+v", a, b)
				}
				if len(a.Losses) != len(b.Losses) {
					t.Fatalf("replay loss count diverged: %d vs %d", len(a.Losses), len(b.Losses))
				}
				for i := range a.Losses {
					if a.Losses[i] != b.Losses[i] {
						t.Fatalf("epoch %d loss diverged across replays", i)
					}
				}
				if paramsHash(a.Replicas[0].Params()) != paramsHash(b.Replicas[0].Params()) {
					t.Fatal("survivor weights diverged across replays")
				}

			default: // Degraded / Info: the job limps on, numerics untouched.
				at := 0.0
				if typ == fault.ECCSBE {
					at = epochT * 0.5
				}
				a := chaosElastic(t, chaosEvents(typ, 0, at))
				if a.Recoveries != 0 || len(a.Survivors) != 2 {
					t.Fatalf("degraded event must not kill ranks: %+v", a)
				}
				if a.Goodput != 1 {
					t.Fatalf("degraded run goodput = %v, want 1 (no lost work)", a.Goodput)
				}
				if len(a.Losses) != len(base.Losses) {
					t.Fatalf("loss count %d, want %d", len(a.Losses), len(base.Losses))
				}
				for i := range a.Losses {
					if a.Losses[i] != base.Losses[i] {
						t.Fatalf("epoch %d loss differs from healthy run — degraded events must not touch numerics", i)
					}
				}
				if sev == fault.Degraded {
					if a.UsefulSeconds <= base.UsefulSeconds {
						t.Fatalf("throttled run took %v, healthy %v — slowdown not modeled",
							a.UsefulSeconds, base.UsefulSeconds)
					}
				} else if a.UsefulSeconds != base.UsefulSeconds {
					t.Fatalf("corrected-error run took %v, healthy %v — info events must not cost time",
						a.UsefulSeconds, base.UsefulSeconds)
				}
			}
		})

		t.Run(fmt.Sprintf("partitioned/%s/%s", typ, sev), func(t *testing.T) {
			watchdog := time.AfterFunc(2*time.Minute, func() {
				panic("chaos case hung: partitioned/" + typ.String())
			})
			defer watchdog.Stop()

			switch sev {
			case fault.Fatal:
				// The partitioned plane has no recovery story: a fatal event
				// must surface as a clean, named, rank-attributed abort.
				sched := chaosEvents(typ, 1, partBase.ComputeSeconds*0.25)
				_, err := chaosPartitioned(t, sched)
				if err == nil {
					t.Fatal("fatal event did not abort the run")
				}
				var re *exec.RankError
				if !errors.As(err, &re) || re.Rank != 1 {
					t.Fatalf("abort not attributed to rank 1: %v", err)
				}
				var fe *fault.FatalError
				if !errors.As(err, &fe) || fe.Event.Type != typ || fe.Event.Slot != 1 {
					t.Fatalf("abort does not name the event: %v", err)
				}
				// Bitwise replay: the same schedule dies the same death.
				_, err2 := chaosPartitioned(t, sched)
				if err2 == nil || err2.Error() != err.Error() {
					t.Fatalf("replay abort diverged:\n%v\nvs\n%v", err, err2)
				}

			default:
				at := 0.0
				if typ == fault.ECCSBE {
					at = partBase.ComputeSeconds * 0.25
				}
				res, err := chaosPartitioned(t, chaosEvents(typ, 0, at))
				if err != nil {
					t.Fatalf("degraded event aborted the run: %v", err)
				}
				if len(res.Losses) != len(partBase.Losses) {
					t.Fatalf("loss count %d, want %d", len(res.Losses), len(partBase.Losses))
				}
				for i := range res.Losses {
					if res.Losses[i] != partBase.Losses[i] {
						t.Fatalf("epoch %d loss differs from healthy run — degraded events must not touch numerics", i)
					}
				}
				if paramsHash(res.Workers[0].Params()) != partBaseHash {
					t.Fatal("degraded run weights differ from healthy run")
				}
				switch typ {
				case fault.ThermalThrottle:
					if res.ComputeSeconds <= partBase.ComputeSeconds || res.TotalSeconds <= partBase.TotalSeconds {
						t.Fatalf("thermal throttle did not stretch compute: %v vs healthy %v",
							res.TotalSeconds, partBase.TotalSeconds)
					}
				case fault.NVLinkDegrade:
					if res.HaloSeconds <= partBase.HaloSeconds {
						t.Fatalf("link degrade did not stretch halo copies: %v vs healthy %v",
							res.HaloSeconds, partBase.HaloSeconds)
					}
					if res.TotalSeconds < partBase.TotalSeconds {
						t.Fatal("link degrade shortened the run")
					}
				default: // ECC SBE: logged, zero cost.
					if res.TotalSeconds != partBase.TotalSeconds {
						t.Fatalf("corrected error cost time: %v vs healthy %v",
							res.TotalSeconds, partBase.TotalSeconds)
					}
				}
			}
		})
	}
}
