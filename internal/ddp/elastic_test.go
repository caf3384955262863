package ddp

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"gnnmark/internal/fault"
	"gnnmark/internal/nn"
)

// elasticEpochTime probes one healthy epoch's modeled duration so tests
// can place fault timestamps at meaningful points of the run.
func elasticEpochTime(t *testing.T, world int) float64 {
	t.Helper()
	cr, err := Train(clusterFactory("TLSTM", "serial"), world, 1, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return cr.EpochSeconds[0]
}

// runElasticTLSTM runs the standard elastic scenario: 4 replicas, 3
// epochs, rank/slot 2 killed by an XID mid-way through epoch 2 (after the
// epoch-1 checkpoint exists). opts supplies everything but the schedule.
func runElasticTLSTM(t *testing.T, epochT float64, opts ElasticOptions) ElasticResult {
	t.Helper()
	var in fault.Injector
	in.InjectXIDAt(2, 79, "GPU has fallen off the bus", epochT*1.5)
	opts.Schedule = in.Schedule()
	res, err := RunElastic(clusterFactory("TLSTM", "serial"), 4, 3, opts)
	if err != nil {
		t.Fatalf("elastic run failed: %v", err)
	}
	return res
}

// TestElasticRecoveryGolden: kill rank 2 mid-epoch, recover by re-sharding
// across the three survivors from the last epoch checkpoint, finish — and
// pin the whole outcome bitwise across reruns: surviving-rank weights,
// round structure, and every time accumulator.
func TestElasticRecoveryGolden(t *testing.T) {
	epochT := elasticEpochTime(t, 4)
	a := runElasticTLSTM(t, epochT, ElasticOptions{})

	if a.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", a.Recoveries)
	}
	if got, want := a.Survivors, []int{0, 1, 3}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("survivors = %v, want %v", got, want)
	}
	if a.EpochsCompleted != 3 {
		t.Fatalf("epochs completed = %d, want 3", a.EpochsCompleted)
	}
	if len(a.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(a.Rounds))
	}
	ff := a.Rounds[0].Failure
	if ff == nil || len(ff.Events) != 1 || ff.Events[0].Slot != 2 || ff.Events[0].Type != fault.XID {
		t.Fatalf("round 0 failure misattributed: %+v", ff)
	}
	if a.Rounds[0].Epochs != 1 {
		t.Fatalf("failure after %d completed epochs, want 1 (mid-epoch-2 kill)", a.Rounds[0].Epochs)
	}
	if a.LostSeconds <= 0 {
		t.Fatal("mid-epoch failure must lose work")
	}
	if a.Goodput <= 0 || a.Goodput >= 1 {
		t.Fatalf("goodput = %v, want in (0, 1)", a.Goodput)
	}
	if len(a.Replicas) != 3 {
		t.Fatalf("final round has %d replicas, want 3", len(a.Replicas))
	}
	// All survivors hold bitwise-identical weights (DDP sync invariant
	// survives recovery).
	for r := 1; r < len(a.Replicas); r++ {
		if v, g := maxRelDiff(t, a.Replicas[r].Params(), a.Replicas[0].Params()); v != 0 || g != 0 {
			t.Fatalf("replica %d diverged from rank 0 after recovery", r)
		}
	}

	// Bitwise replay: a second run of the identical scenario reproduces
	// weights and accounting exactly.
	b := runElasticTLSTM(t, epochT, ElasticOptions{})
	if v, g := maxRelDiff(t, b.Replicas[0].Params(), a.Replicas[0].Params()); v != 0 || g != 0 {
		t.Fatal("rerun weights diverged — recovery is not deterministic")
	}
	if a.UsefulSeconds != b.UsefulSeconds || a.LostSeconds != b.LostSeconds ||
		a.OverheadSeconds != b.OverheadSeconds || a.Goodput != b.Goodput {
		t.Fatalf("rerun accounting diverged:\n%+v\nvs\n%+v", a, b)
	}
	for i := range a.Losses {
		if a.Losses[i] != b.Losses[i] {
			t.Fatalf("epoch %d loss diverged across reruns", i)
		}
	}
}

// TestElasticBeatsFailStop: at the same single-failure churn, elastic
// recovery (drop + re-shard, seconds of overhead) achieves strictly better
// goodput than fail-stop restart (full-world rebuild after a replacement
// delay).
func TestElasticBeatsFailStop(t *testing.T) {
	epochT := elasticEpochTime(t, 4)
	elastic := runElasticTLSTM(t, epochT, ElasticOptions{})
	failStop := runElasticTLSTM(t, epochT, ElasticOptions{FailStop: true})

	if failStop.Recoveries != 1 || len(failStop.Survivors) != 4 {
		t.Fatalf("fail-stop run: recoveries=%d survivors=%v", failStop.Recoveries, failStop.Survivors)
	}
	if elastic.Goodput <= failStop.Goodput {
		t.Fatalf("elastic goodput %v does not beat fail-stop %v", elastic.Goodput, failStop.Goodput)
	}
	if failStop.OverheadSeconds <= elastic.OverheadSeconds {
		t.Fatal("fail-stop replacement must cost more than an elastic restart")
	}
	if failStop.EpochsCompleted != 3 {
		t.Fatalf("fail-stop completed %d epochs, want 3", failStop.EpochsCompleted)
	}
}

// TestElasticNoSurvivors: a schedule that kills the last replica ends in a
// clean, named abort — never a hang, never a zero-world panic.
func TestElasticNoSurvivors(t *testing.T) {
	epochT := elasticEpochTime(t, 2)
	var in fault.Injector
	in.InjectXIDAt(0, 79, "bus", epochT*0.5)
	in.InjectECCAt(1, true, "dbe", epochT*1.2)
	_, err := RunElastic(clusterFactory("TLSTM", "serial"), 2, 3, ElasticOptions{
		Schedule: in.Schedule(),
	})
	if err == nil {
		t.Fatal("whole-fleet loss must surface an error")
	}
	if !strings.Contains(err.Error(), "no survivors") {
		t.Fatalf("error %q does not name the fleet exhaustion", err)
	}
	var ff *FleetFailure
	if !errors.As(err, &ff) {
		t.Fatalf("cause is not a *FleetFailure: %v", err)
	}
}

// TestTrainFailureKeepsCompletedEpochs is Train's failure contract: a rank
// killed mid-way through epoch 2 ends the round with the *FleetFailure and,
// beside it, the round's one record of what it completed — epoch 1's
// seconds and loss, bit-equal to a healthy one-epoch run at the same seed —
// but no replicas. World 2 dies at the barrier leader's sweep (checkFatal),
// world 1 at runSingle's epoch-end check.
func TestTrainFailureKeepsCompletedEpochs(t *testing.T) {
	for _, world := range []int{2, 1} {
		healthy, err := Train(clusterFactory("TLSTM", "serial"), world, 1, ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// Fatal events compare against barrier-time device clocks, which
		// advance with compute only.
		victim := world - 1
		var in fault.Injector
		in.InjectXIDAt(victim, 79, "GPU has fallen off the bus", healthy.ComputeSeconds*1.5)
		cfg := ClusterConfig{Monitors: make([]*fault.Monitor, world)}
		for r := range cfg.Monitors {
			cfg.Monitors[r] = fault.NewMonitor(fault.SlotEvents(in.Schedule(), r), true)
		}
		cr, err := Train(clusterFactory("TLSTM", "serial"), world, 3, cfg)
		var ff *FleetFailure
		if !errors.As(err, &ff) {
			t.Fatalf("world %d: got %v, want a *FleetFailure", world, err)
		}
		if len(ff.DeadRanks) != 1 || ff.DeadRanks[0] != victim || ff.LostSeconds <= 0 {
			t.Fatalf("world %d: failure %+v, want rank %d dead with lost work", world, ff, victim)
		}
		if cr.GPUs != world || cr.Replicas != nil {
			t.Fatalf("world %d: header GPUs=%d, %d replicas; want %d and none", world, cr.GPUs, len(cr.Replicas), world)
		}
		if len(cr.EpochSeconds) != 1 || len(cr.Losses) != 1 ||
			cr.EpochSeconds[0] != healthy.EpochSeconds[0] || cr.Losses[0] != healthy.Losses[0] {
			t.Fatalf("world %d: completed epochs %v / %v, want the healthy run's %v / %v",
				world, cr.EpochSeconds, cr.Losses, healthy.EpochSeconds, healthy.Losses)
		}
	}
}

// TestElasticCheckpointFile turns on ElasticOptions.CheckpointPath: the
// crash-safe file changes nothing about the run (accounting and survivor
// weights bit-equal to the in-memory run), and what it holds afterwards is
// the final round's rank-0 training state, byte for byte.
func TestElasticCheckpointFile(t *testing.T) {
	epochT := elasticEpochTime(t, 4)
	mem := runElasticTLSTM(t, epochT, ElasticOptions{})
	path := filepath.Join(t.TempDir(), "elastic.ckpt")
	file := runElasticTLSTM(t, epochT, ElasticOptions{CheckpointPath: path})

	if file.Recoveries != 1 || file.EpochsCompleted != mem.EpochsCompleted ||
		file.UsefulSeconds != mem.UsefulSeconds || file.LostSeconds != mem.LostSeconds ||
		file.OverheadSeconds != mem.OverheadSeconds || file.Goodput != mem.Goodput {
		t.Fatalf("checkpoint file moved the accounting:\n%+v\nvs\n%+v", file, mem)
	}
	for i := range mem.Losses {
		if file.Losses[i] != mem.Losses[i] {
			t.Fatalf("epoch %d loss moved with the checkpoint file", i)
		}
	}
	if len(file.Replicas) != len(mem.Replicas) {
		t.Fatalf("%d survivors with the file, %d without", len(file.Replicas), len(mem.Replicas))
	}
	for r := range mem.Replicas {
		if v, g := maxRelDiff(t, file.Replicas[r].Params(), mem.Replicas[r].Params()); v != 0 || g != 0 {
			t.Fatalf("survivor %d weights moved with the checkpoint file", r)
		}
	}

	fresh, env, err := clusterFactory("TLSTM", "serial")(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if err := nn.LoadTrainingFile(path, fresh.Optimizer()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nn.Snapshot(fresh.Optimizer()), nn.Snapshot(file.Replicas[0].Optimizer())) {
		t.Fatal("the checkpoint file does not hold the final rank-0 training state")
	}
}
