package partitioned

import (
	"errors"
	"math"
	"testing"

	"gnnmark/internal/autograd"
	"gnnmark/internal/backend"
	"gnnmark/internal/datasets"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/ops"
	"gnnmark/internal/vmem"
)

// newEnv builds a fresh seed-21 env on a fast V100 (coarse cache replay).
func newEnv(hbmBytes int64) *models.Env {
	cfg := gpu.V100()
	cfg.MaxSampledWarps = 256
	if hbmBytes > 0 {
		cfg.HBMBytes = hbmBytes
	}
	dev := gpu.New(cfg)
	be, err := backend.New("serial", nil)
	if err != nil {
		panic(err)
	}
	return models.NewEnv(ops.NewWith(dev, be), 21)
}

func argaFactory(hbmBytes int64) Factory {
	return func(rank, world int) (models.PartWorkload, *models.Env, error) {
		env := newEnv(hbmBytes)
		w, err := models.Partition(models.NewARGA(env, datasets.NewCitation(env.RNG, "cora"), models.ARGAConfig{}), env, rank, world, nil)
		return w, env, err
	}
}

// smallMolHIV truncates the molecule set to two global batches.
func smallMolHIV(env *models.Env) *datasets.MoleculeSet {
	ds := datasets.MolHIV(env.RNG)
	ds.Graphs = ds.Graphs[:64]
	ds.Features = ds.Features[:64]
	ds.Labels = ds.Labels[:64]
	return ds
}

func dgcnFactory() Factory {
	return func(rank, world int) (models.PartWorkload, *models.Env, error) {
		env := newEnv(0)
		w, err := models.Partition(models.NewDGCN(env, smallMolHIV(env), models.DGCNConfig{Layers: 4, Hidden: 16}), env, rank, world, nil)
		return w, env, err
	}
}

// maxRelDiff is the torch.allclose-style violation ratio over parameter
// values: |x-y| / (atol + rtol*|y|) with rtol=1e-5, atol=1e-7.
func maxRelDiff(t *testing.T, a, b []*autograd.Param) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("param count mismatch: %d vs %d", len(a), len(b))
	}
	const rtol, atol = 1e-5, 1e-7
	worst := 0.0
	for i := range a {
		av, bv := a[i].Value.Data(), b[i].Value.Data()
		if len(av) != len(bv) {
			t.Fatalf("param %s size mismatch", a[i].Name)
		}
		for j := range av {
			d := math.Abs(float64(av[j]) - float64(bv[j]))
			if r := d / (atol + rtol*math.Abs(float64(bv[j]))); r > worst {
				worst = r
			}
		}
	}
	return worst
}

func requireBitwiseParams(t *testing.T, a, b []*autograd.Param, what string) {
	t.Helper()
	for i := range a {
		av, bv := a[i].Value.Data(), b[i].Value.Data()
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("%s: param %s[%d]: %v vs %v", what, a[i].Name, j, av[j], bv[j])
			}
		}
	}
}

// TestPartitionedARGAEquivalence is the headline property: partitioned
// full-graph training over 4 simulated GPUs trains the same ARGA as one
// device, because the partitioned computation is a re-association of the
// same global computation (halo-extended SpMMs reproduce global rows;
// summed partial gradients reproduce global gradients).
func TestPartitionedARGAEquivalence(t *testing.T) {
	const epochs = 2

	env := newEnv(0)
	ds := datasets.NewCitation(env.RNG, "cora")
	single := models.NewARGA(env, ds, models.ARGAConfig{})
	var singleLosses []float64
	for ep := 0; ep < epochs; ep++ {
		singleLosses = append(singleLosses, single.TrainEpoch())
	}
	env.Close()

	res, err := Train(argaFactory(0), 4, epochs, Config{Overlap: true})
	if err != nil {
		t.Fatalf("partitioned ARGA: %v", err)
	}
	for ep := 0; ep < epochs; ep++ {
		d := math.Abs(res.Losses[ep] - singleLosses[ep])
		if d > 1e-5*(1+math.Abs(singleLosses[ep])) {
			t.Fatalf("epoch %d loss: partitioned %v vs single %v", ep, res.Losses[ep], singleLosses[ep])
		}
	}
	if worst := maxRelDiff(t, res.Workers[0].Params(), single.Params()); worst > 1 {
		t.Fatalf("weights diverged: violation ratio %v", worst)
	}
	// Every rank must hold bitwise-identical weights (lockstep optimizers
	// over identically reduced gradients).
	for r := 1; r < 4; r++ {
		requireBitwiseParams(t, res.Workers[r].Params(), res.Workers[0].Params(), "rank drift")
	}
	if res.HaloBytes == 0 || res.EdgeCut == 0 {
		t.Fatalf("no cross-partition traffic recorded: bytes=%d cut=%d", res.HaloBytes, res.EdgeCut)
	}
	if res.TotalSeconds <= 0 || res.ComputeSeconds <= 0 {
		t.Fatalf("degenerate timing: total=%v compute=%v", res.TotalSeconds, res.ComputeSeconds)
	}

	// Byte-identical rerun: same factory, same config.
	res2, err := Train(argaFactory(0), 4, epochs, Config{Overlap: true})
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	for ep := range res.Losses {
		if res.Losses[ep] != res2.Losses[ep] {
			t.Fatalf("rerun loss drift at epoch %d: %v vs %v", ep, res.Losses[ep], res2.Losses[ep])
		}
		if res.EpochSeconds[ep] != res2.EpochSeconds[ep] {
			t.Fatalf("rerun timing drift at epoch %d", ep)
		}
	}
	requireBitwiseParams(t, res2.Workers[0].Params(), res.Workers[0].Params(), "rerun drift")
}

// TestPartitionedDGCNEquivalence covers the batched-graph path: SyncBN
// statistics, halo exchange per residual block, replicated pooling/head.
func TestPartitionedDGCNEquivalence(t *testing.T) {
	const epochs = 2

	env := newEnv(0)
	cfg := models.DGCNConfig{Layers: 4, Hidden: 16}
	single := models.NewDGCN(env, smallMolHIV(env), cfg)
	var singleLosses []float64
	for ep := 0; ep < epochs; ep++ {
		singleLosses = append(singleLosses, single.TrainEpoch())
	}
	env.Close()

	res, err := Train(dgcnFactory(), 2, epochs, Config{Overlap: true})
	if err != nil {
		t.Fatalf("partitioned DGCN: %v", err)
	}
	for ep := 0; ep < epochs; ep++ {
		d := math.Abs(res.Losses[ep] - singleLosses[ep])
		if d > 1e-5*(1+math.Abs(singleLosses[ep])) {
			t.Fatalf("epoch %d loss: partitioned %v vs single %v", ep, res.Losses[ep], singleLosses[ep])
		}
	}
	if worst := maxRelDiff(t, res.Workers[0].Params(), single.Params()); worst > 1 {
		t.Fatalf("weights diverged: violation ratio %v", worst)
	}
	requireBitwiseParams(t, res.Workers[1].Params(), res.Workers[0].Params(), "rank drift")
	if res.HaloBytes == 0 {
		t.Fatal("no halo traffic for partitioned DGCN")
	}
}

// TestOverlapHidesHaloTime pins the overlap model: boundary-first overlapped
// exchange never trains slower than the serialized schedule, with bitwise
// identical numerics (the schedule only moves simulated time).
func TestOverlapHidesHaloTime(t *testing.T) {
	const epochs = 1
	ser, err := Train(argaFactory(0), 4, epochs, Config{Overlap: false})
	if err != nil {
		t.Fatalf("serialized: %v", err)
	}
	ovl, err := Train(argaFactory(0), 4, epochs, Config{Overlap: true})
	if err != nil {
		t.Fatalf("overlapped: %v", err)
	}
	for ep := range ser.Losses {
		if ser.Losses[ep] != ovl.Losses[ep] {
			t.Fatalf("schedule changed numerics at epoch %d", ep)
		}
	}
	requireBitwiseParams(t, ovl.Workers[0].Params(), ser.Workers[0].Params(), "schedule numerics")
	if ovl.TotalSeconds > ser.TotalSeconds*(1+1e-9) {
		t.Fatalf("overlap slower than serialized: %v vs %v", ovl.TotalSeconds, ser.TotalSeconds)
	}
}

// TestPartitionedFitsWhereSingleOOMs is the capacity demo: measure the
// single-device footprint of full-graph ARGA, shrink HBM below it, and show
// the same training OOMs on one device while 4-way partitioning fits —
// each part materializes |owned| x n decoder logits instead of n x n.
func TestPartitionedFitsWhereSingleOOMs(t *testing.T) {
	base, err := Train(argaFactory(0), 1, 1, Config{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	peak := base.PeakBytes[0]
	if peak <= 0 {
		t.Fatalf("no measured peak")
	}
	budget := peak * 6 / 10

	_, err = Train(argaFactory(budget), 1, 1, Config{})
	var oom *vmem.OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("single device under %d-byte budget: want OOM, got %v", budget, err)
	}
	res, err := Train(argaFactory(budget), 4, 1, Config{})
	if err != nil {
		t.Fatalf("4-way under the same budget: %v", err)
	}
	for r, p := range res.PeakBytes {
		if p >= budget {
			t.Fatalf("rank %d peak %d exceeds budget %d", r, p, budget)
		}
	}
}

// TestPartitionRejects pins models.Partition's refusals as errors, never
// panics — a rank outside the world, a workload with no partitioned form, a
// pipelined Env — and that Train returns a factory's refusal unwrapped.
func TestPartitionRejects(t *testing.T) {
	arga := func(env *models.Env) models.Workload {
		return models.NewARGA(env, datasets.NewCitation(env.RNG, "cora"), models.ARGAConfig{})
	}
	for _, tc := range []struct {
		name        string
		rank, world int
		depth       int
		build       func(env *models.Env) models.Workload
		want        string
	}{
		{"rank past the world", 2, 2, 0, arga, "models: rank 2 outside world 2"},
		{"negative rank", -1, 2, 0, arga, "models: rank -1 outside world 2"},
		{"no partitioned form", 0, 2, 0, func(env *models.Env) models.Workload {
			return models.NewTLSTM(env, datasets.SST(env.RNG), models.TLSTMConfig{})
		}, "models: TLSTM has no partitioned form"},
		{"pipelined env", 0, 2, 2, arga, "models: ARGA on a pipelined Env cannot be partitioned"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var refusal error
			_, err := Train(func(int, int) (models.PartWorkload, *models.Env, error) {
				env := newEnv(0)
				env.Pipeline.Depth = tc.depth
				t.Cleanup(env.Close)
				w, err := models.Partition(tc.build(env), env, tc.rank, tc.world, nil)
				if w != nil || err == nil || err.Error() != tc.want {
					t.Errorf("Partition = %v, %v; want the error %q", w, err, tc.want)
				}
				refusal = err
				return w, env, err
			}, 1, 1, Config{})
			if err != refusal {
				t.Errorf("Train returned %v, want the factory's error itself", err)
			}
		})
	}
}
