package ddp

import (
	"errors"
	"math"
	"testing"

	"gnnmark/internal/autograd"
	"gnnmark/internal/backend"
	"gnnmark/internal/datasets"
	"gnnmark/internal/exec"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/ops"
	"gnnmark/internal/vmem"
)

// clusterFactory builds seed-identical replicas for the executed engine.
// Every call constructs a fresh device, engine, and dataset from seed 21, so
// replicas differ only in their (rank, world) shard assignment.
func clusterFactory(name, backendName string) ReplicaFactory {
	return clusterFactoryHBM(name, backendName, 0)
}

// clusterFactoryHBM is clusterFactory on devices with an hbmBytes memory
// budget (0 = the V100's own).
func clusterFactoryHBM(name, backendName string, hbmBytes int64) ReplicaFactory {
	return func(_, rank, world int) (models.Workload, *models.Env, error) {
		cfg := gpu.V100()
		cfg.MaxSampledWarps = 256
		cfg.HBMBytes = hbmBytes
		dev := gpu.New(cfg)
		be, err := backend.New(backendName, nil)
		if err != nil {
			return nil, nil, err
		}
		env := models.NewEnv(ops.NewWith(dev, be), 21)
		env.Rank, env.World = rank, world
		switch name {
		case "TLSTM":
			ds := datasets.SST(env.RNG)
			ds.Trees = ds.Trees[:32]
			return models.NewTLSTM(env, ds, models.TLSTMConfig{EmbedDim: 16, Hidden: 16, BatchSize: 16}), env, nil
		case "KGNNL":
			ds := datasets.Proteins(env.RNG)
			ds.Graphs = ds.Graphs[:32]
			ds.Features = ds.Features[:32]
			ds.Labels = ds.Labels[:32]
			return models.NewKGNN(env, ds, models.KGNNConfig{K: 2, Hidden: 16, BatchSize: 16}), env, nil
		case "PSAGE":
			return models.NewPSAGE(env, datasets.MovieLens(env.RNG),
				models.PSAGEConfig{Hidden: 16, BatchSize: 16, Batches: 2}), env, nil
		}
		panic("unknown " + name)
	}
}

// maxRelDiff returns the worst torch.allclose-style violation ratio
// |x-y| / (atol + rtol*|y|) with rtol = 1e-5, atol = 1e-7, over parameter
// values and over gradients; <= 1 means within 1e-5 relative tolerance.
func maxRelDiff(t *testing.T, a, b []*autograd.Param) (values, grads float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("param count mismatch: %d vs %d", len(a), len(b))
	}
	const rtol, atol = 1e-5, 1e-7
	rel := func(x, y float32) float64 {
		d := math.Abs(float64(x) - float64(y))
		return d / (atol + rtol*math.Abs(float64(y)))
	}
	for i := range a {
		av, bv := a[i].Value.Data(), b[i].Value.Data()
		ag, bg := a[i].Grad.Data(), b[i].Grad.Data()
		for j := range av {
			if d := rel(av[j], bv[j]); d > values {
				values = d
			}
			if d := rel(ag[j], bg[j]); d > grads {
				grads = d
			}
		}
	}
	return values, grads
}

// TestExecutedEquivalence is the headline property of the executed engine:
// one epoch of G-replica DDP over sharded batches trains the same model as
// one epoch of single-device training over the full batches, because
// averaged shard gradients equal the gradient of the mean loss. TLSTM is
// the clean subject: no batch statistics, no per-iteration sampling, and
// 32 trees / batch 16 shard exactly for G in {2, 4}.
func TestExecutedEquivalence(t *testing.T) {
	single, err := Train(clusterFactory("TLSTM", "serial"), 1, 1, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{2, 4} {
		cr, err := Train(clusterFactory("TLSTM", "serial"), g, 1, ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if cr.Replicated {
			t.Fatalf("G=%d: TLSTM must shard, not replicate", g)
		}
		dv, dg := maxRelDiff(t, cr.Replicas[0].Params(), single.Replicas[0].Params())
		if dv > 1 {
			t.Errorf("G=%d: post-epoch weights exceed 1e-5 relative tolerance vs single-device (violation ratio %.2f)", g, dv)
		}
		if dg > 1 {
			t.Errorf("G=%d: final gradients exceed 1e-5 relative tolerance vs single-device (violation ratio %.2f)", g, dg)
		}
		// All replicas stepped on identical averaged gradients, so their
		// weights must be bitwise in sync, like torch DDP's broadcast+sync
		// invariant.
		for r := 1; r < g; r++ {
			if v, gr := maxRelDiff(t, cr.Replicas[r].Params(), cr.Replicas[0].Params()); v != 0 || gr != 0 {
				t.Errorf("G=%d: replica %d diverged from rank 0 (dv=%g dg=%g)", g, r, v, gr)
			}
		}
		if math.Abs(cr.Losses[0]-single.Losses[0]) > 1e-5*math.Max(1, math.Abs(single.Losses[0])) {
			t.Errorf("G=%d: epoch loss %.8f vs single-device %.8f", g, cr.Losses[0], single.Losses[0])
		}
	}
}

// TestExecutedEquivalenceKGNN repeats the equivalence check on a second
// architecture (graph batching + SpMM + mean-pool readout, cross-entropy).
func TestExecutedEquivalenceKGNN(t *testing.T) {
	single, err := Train(clusterFactory("KGNNL", "serial"), 1, 1, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Train(clusterFactory("KGNNL", "serial"), 2, 1, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dv, dg := maxRelDiff(t, cr.Replicas[0].Params(), single.Replicas[0].Params())
	if dv > 1 || dg > 1 {
		t.Errorf("KGNNL G=2: weight/grad violation ratios %.2f/%.2f exceed 1e-5 relative tolerance", dv, dg)
	}
}

// snapshotWeights deep-copies every parameter value for bitwise comparison.
func snapshotWeights(w models.Workload) [][]float32 {
	var out [][]float32
	for _, p := range w.Params() {
		c := make([]float32, len(p.Value.Data()))
		copy(c, p.Value.Data())
		out = append(out, c)
	}
	return out
}

// TestExecutedDeterminism pins byte-identical results across repeated runs
// and across the serial/parallel numerics backends: the ring reduction uses
// a fixed association order and the barrier leader's work is a pure function
// of collected state, so goroutine scheduling must not leak into weights or
// the modeled timeline.
func TestExecutedDeterminism(t *testing.T) {
	run := func(backendName string) ([][]float32, []float64) {
		cr, err := Train(clusterFactory("TLSTM", backendName), 2, 2, ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return snapshotWeights(cr.Replicas[0]), cr.EpochSeconds
	}
	w1, t1 := run("serial")
	w2, t2 := run("serial")
	w3, t3 := run("parallel")
	for i := range w1 {
		for j := range w1[i] {
			if w1[i][j] != w2[i][j] {
				t.Fatalf("repeated serial runs differ at param %d elem %d: %v vs %v", i, j, w1[i][j], w2[i][j])
			}
			if w1[i][j] != w3[i][j] {
				t.Fatalf("serial vs parallel backend differ at param %d elem %d: %v vs %v", i, j, w1[i][j], w3[i][j])
			}
		}
	}
	for e := range t1 {
		if t1[e] != t2[e] || t1[e] != t3[e] {
			t.Fatalf("epoch timeline not deterministic: %v %v %v", t1, t2, t3)
		}
	}
}

// TestExecutedReplicatedPSAGE checks the executed engine reproduces the
// paper's PSAGE pathology: the DDP-incompatible sampler forces full-batch
// replicas, so extra GPUs add synchronization and host-link contention
// without reducing compute — speedup below 1x.
func TestExecutedReplicatedPSAGE(t *testing.T) {
	res, err := ExecutedStrongScaling(clusterFactory("PSAGE", "serial"), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res[1].Replicated {
		t.Fatal("PSAGE must be marked replicated beyond 1 GPU")
	}
	if res[1].Speedup >= 1 {
		t.Fatalf("replicated PSAGE speedup = %.3f, want < 1", res[1].Speedup)
	}
	if res[1].CommSeconds <= 0 {
		t.Fatal("replicated run must still pay communication")
	}
	ratio := res[1].ComputeSeconds / res[0].ComputeSeconds
	if ratio < 0.9 {
		t.Fatalf("replicated compute should not shrink: ratio %.3f", ratio)
	}
}

// TestExecutedTimelineAccounting checks the overlap model's invariants:
// bucketing splits the payload, some communication hides under backward
// compute, and the totals are consistent.
func TestExecutedTimelineAccounting(t *testing.T) {
	var res []ClusterResult
	for _, g := range []int{1, 2} {
		cr, err := Train(clusterFactory("TLSTM", "serial"), g, 1, ClusterConfig{BucketCapBytes: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		res = append(res, cr)
	}
	r := res[1]
	if r.Buckets < 2 {
		t.Fatalf("8 KiB cap must split TLSTM grads into several buckets, got %d", r.Buckets)
	}
	if r.OverlappedCommSeconds <= 0 {
		t.Fatalf("some communication must hide under backward compute, got %g", r.OverlappedCommSeconds)
	}
	if d := r.CommSeconds - (r.ExposedCommSeconds + r.OverlappedCommSeconds); math.Abs(d) > 1e-12 {
		t.Fatalf("comm split inconsistent by %g", d)
	}
	if d := r.TotalSeconds - (r.ComputeSeconds + r.ExposedCommSeconds); math.Abs(d) > 1e-12*math.Max(1, r.TotalSeconds) {
		t.Fatalf("epoch != compute + exposed comm (diff %g)", d)
	}
	// The 1-GPU baseline pays no communication.
	if res[0].CommSeconds != 0 || res[0].Buckets == 0 {
		t.Fatalf("baseline result malformed: %+v", res[0])
	}
}

// TestRingReduceMatchesSum checks the fixed-association ring reduction
// computes the element-wise sum regardless of world size and chunking.
func TestRingReduceMatchesSum(t *testing.T) {
	for _, world := range []int{2, 3, 4, 7} {
		n := 13
		flats := make([][]float32, world)
		want := make([]float64, n)
		for r := range flats {
			flats[r] = make([]float32, n)
			for i := range flats[r] {
				flats[r][i] = float32(r*n+i) / 7
				want[i] += float64(flats[r][i])
			}
		}
		dst := make([]float32, n)
		ringReduce(dst, 3, world, func(r int) []float32 { return flats[r] })
		for i := range dst {
			if math.Abs(float64(dst[i])-want[i]) > 1e-4 {
				t.Fatalf("world %d: dst[%d] = %v, want %v", world, i, dst[i], want[i])
			}
		}
	}
}

// TestClusterFailuresAreErrors: nothing a replica can do wrong reaches the
// caller as a panic. A factory's own error comes back unwrapped, and so
// does a world of zero; a
// simulated OOM that every replica hits at the same kernel of the same
// iteration comes back as the lowest rank's *exec.RankError around the
// *vmem.OOMError, identically on every rerun, at world 1 and world 2.
func TestClusterFailuresAreErrors(t *testing.T) {
	boom := errors.New("no device in slot 1")
	healthy := clusterFactory("TLSTM", "serial")
	_, err := Train(func(slot, rank, world int) (models.Workload, *models.Env, error) {
		if slot == 1 {
			return nil, nil, boom
		}
		return healthy(slot, rank, world)
	}, 2, 1, ClusterConfig{})
	if err != boom {
		t.Fatalf("factory error came back as %v, want it unwrapped", err)
	}
	if _, err := Train(healthy, 0, 1, ClusterConfig{}); err == nil {
		t.Fatal("world 0 trained; want an error")
	}
	if cr, err := Train(healthy, 1, 0, ClusterConfig{}); err != nil || cr.Losses != nil || cr.EpochSeconds != nil || cr.TotalSeconds != 0 {
		t.Fatalf("zero epochs: losses %v, seconds %v, total %v, err %v; want no epochs and no error", cr.Losses, cr.EpochSeconds, cr.TotalSeconds, err)
	}

	// 1 MiB cannot hold the allocator's first 2 MiB segment: construction
	// (host-only for TLSTM) passes, the first training kernel cannot run.
	for _, world := range []int{1, 2} {
		var first string
		for rerun := 0; rerun < 3; rerun++ {
			_, err := Train(clusterFactoryHBM("TLSTM", "serial", 1<<20), world, 1, ClusterConfig{})
			var re *exec.RankError
			var oom *vmem.OOMError
			if !errors.As(err, &re) || re.Rank != 0 || !errors.As(err, &oom) || oom.Kernel == "" {
				t.Fatalf("world %d: got %v, want rank 0's *vmem.OOMError naming a kernel", world, err)
			}
			if first == "" {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("world %d: rerun reported %q, first run %q", world, err, first)
			}
		}
	}
}
