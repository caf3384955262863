package models

import (
	"math"
	"testing"

	"gnnmark/internal/datasets"
	"gnnmark/internal/gpu"
	"gnnmark/internal/obs"
	"gnnmark/internal/ops"
	"gnnmark/internal/profiler"
)

// testEnv returns an Env on a small sampled device plus its profiler.
func testEnv(seed int64) (*Env, *profiler.Profiler) { return testEnvIn(seed, nil) }

// testEnvIn is testEnv recording into run.
func testEnvIn(seed int64, run *obs.Run) (*Env, *profiler.Profiler) {
	cfg := gpu.V100()
	cfg.MaxSampledWarps = 512
	cfg.Obs = run
	dev := gpu.New(cfg)
	prof := profiler.Attach(dev)
	env := NewEnv(ops.New(dev), seed)
	env.OnIteration = prof.NextIteration
	return env, prof
}

// buildSmall constructs each workload with a deliberately tiny config so
// the full suite trains in seconds.
func buildSmall(name string, env *Env) Workload {
	switch name {
	case "ARGA":
		return NewARGA(env, datasets.NewCitation(env.RNG, "cora"), ARGAConfig{Hidden: 16, Embed: 8})
	case "DGCN":
		ds := datasets.MolHIV(env.RNG)
		ds.Graphs = ds.Graphs[:48]
		ds.Features = ds.Features[:48]
		ds.Labels = ds.Labels[:48]
		return NewDGCN(env, ds, DGCNConfig{Layers: 6, Hidden: 24, BatchSize: 16})
	case "STGCN":
		return NewSTGCN(env, datasets.METRLA(env.RNG), STGCNConfig{Channels: 12, BatchSize: 4, Batches: 3})
	case "GW":
		ds := datasets.AGENDA(env.RNG)
		ds.Examples = ds.Examples[:6]
		return NewGW(env, ds, GWConfig{Dim: 32, Heads: 2, EncLayers: 1, BatchSize: 3, MaxDecode: 10})
	case "KGNNL":
		ds := datasets.Proteins(env.RNG)
		ds.Graphs = ds.Graphs[:32]
		ds.Features = ds.Features[:32]
		ds.Labels = ds.Labels[:32]
		return NewKGNN(env, ds, KGNNConfig{K: 2, Hidden: 16, BatchSize: 16})
	case "KGNNH":
		ds := datasets.Proteins(env.RNG)
		ds.Graphs = ds.Graphs[:16]
		ds.Features = ds.Features[:16]
		ds.Labels = ds.Labels[:16]
		return NewKGNN(env, ds, KGNNConfig{K: 3, Hidden: 12, BatchSize: 8})
	case "PSAGE":
		return NewPSAGE(env, datasets.MovieLens(env.RNG), PSAGEConfig{Hidden: 16, BatchSize: 8, Batches: 3})
	case "TLSTM":
		ds := datasets.SST(env.RNG)
		ds.Trees = ds.Trees[:24]
		return NewTLSTM(env, ds, TLSTMConfig{EmbedDim: 12, Hidden: 12, BatchSize: 8})
	}
	panic("unknown workload " + name)
}

var allWorkloads = []string{"ARGA", "DGCN", "STGCN", "GW", "KGNNL", "KGNNH", "PSAGE", "TLSTM"}

func TestAllWorkloadsTrainAndReduceLoss(t *testing.T) {
	for _, name := range allWorkloads {
		name := name
		t.Run(name, func(t *testing.T) {
			env, _ := testEnv(7)
			w := buildSmall(name, env)
			if len(w.Params()) == 0 {
				t.Fatal("no parameters")
			}
			if w.IterationsPerEpoch() <= 0 {
				t.Fatal("no iterations")
			}
			first := w.TrainEpoch()
			if math.IsNaN(first) || math.IsInf(first, 0) {
				t.Fatalf("initial loss is %v", first)
			}
			var last float64
			epochs := 6
			for i := 0; i < epochs; i++ {
				last = w.TrainEpoch()
				if math.IsNaN(last) || math.IsInf(last, 0) {
					t.Fatalf("loss diverged at epoch %d: %v", i, last)
				}
			}
			if last >= first {
				t.Fatalf("loss did not decrease: %.4f -> %.4f", first, last)
			}
		})
	}
}

func TestWorkloadKernelSignatures(t *testing.T) {
	// Each workload must emit the kernel classes its paper profile hinges
	// on.
	wants := map[string][]gpu.OpClass{
		"ARGA":  {gpu.OpSpMM, gpu.OpGEMM, gpu.OpReduction},
		"DGCN":  {gpu.OpSpMM, gpu.OpBatchNorm, gpu.OpElementWise, gpu.OpScatter},
		"STGCN": {gpu.OpConv, gpu.OpSpMM, gpu.OpBatchNorm},
		"GW":    {gpu.OpGEMM, gpu.OpEmbedding, gpu.OpReduction},
		"KGNNL": {gpu.OpSpMM, gpu.OpGather, gpu.OpScatter},
		"KGNNH": {gpu.OpSpMM, gpu.OpGather},
		"PSAGE": {gpu.OpSort, gpu.OpIndexSelect, gpu.OpGather, gpu.OpScatter},
		"TLSTM": {gpu.OpGather, gpu.OpScatter, gpu.OpSort, gpu.OpGEMM},
	}
	for _, name := range allWorkloads {
		name := name
		t.Run(name, func(t *testing.T) {
			env, prof := testEnv(8)
			w := buildSmall(name, env)
			prof.Reset() // ignore construction-time kernels
			w.TrainEpoch()
			for _, class := range wants[name] {
				if prof.Class(class).Kernels == 0 {
					t.Errorf("%s epoch emitted no %v kernels", name, class)
				}
			}
			r := prof.Snapshot()
			if r.KernelSeconds <= 0 {
				t.Fatal("no kernel time recorded")
			}
			if r.H2DBytes == 0 {
				t.Fatal("no H2D transfers recorded")
			}
		})
	}
}

// TestDDPCompatibilityFlags holds Env.Sharded to what it means: a workload
// that called Env.Shard at ranks 0 and 1 of a world of two, built from one
// seed, trains different data and reports different losses; any other
// workload trains the same data at every rank. With the input pipeline on,
// STGCN's producer shards on loader workers.
func TestDDPCompatibilityFlags(t *testing.T) {
	for _, depth := range []int{0, 2} {
		for _, name := range append([]string{"DNN"}, allWorkloads...) {
			var losses [2]float64
			var sharded bool
			for rank := range losses {
				env := NewEnv(ops.New(nil), 9)
				env.Rank, env.World = rank, 2
				env.Pipeline.Depth = depth
				var w Workload
				if name == "DNN" {
					w = NewDNN(env, DNNConfig{ImageSize: 12, Channels: []int{8, 16}, BatchSize: 8, Batches: 2})
				} else {
					w = buildSmall(name, env)
				}
				losses[rank] = w.TrainEpoch()
				sharded = env.Sharded()
				env.Close()
			}
			if differ := losses[0] != losses[1]; differ != sharded {
				t.Errorf("%s at pipeline depth %d: Sharded() = %v, but ranks 0 and 1 of 2 trained to losses %v and %v",
					name, depth, sharded, losses[0], losses[1])
			}
		}
	}
}

func TestShardShrinksWork(t *testing.T) {
	// Strong-scaling support: a replica of a two-replica world trains half
	// of every global batch, which must reduce per-epoch simulated time for
	// a compute-heavy workload.
	run := func(world int) float64 {
		env, _ := testEnv(10)
		env.Rank, env.World = 0, world
		ds := datasets.METRLA(env.RNG)
		w := NewSTGCN(env, ds, STGCNConfig{Channels: 12, BatchSize: 8, Batches: 2})
		env.E.Device().ResetClock()
		w.TrainEpoch()
		return env.E.Device().ElapsedSeconds()
	}
	full := run(1)
	half := run(2)
	if half >= full {
		t.Fatalf("sharding across 2 replicas did not shrink epoch time: %g vs %g", half, full)
	}
}

func TestPSAGEDatasetDependence(t *testing.T) {
	// The paper's Figure 2 shows PSAGE is dataset-dependent: on NWP (10x
	// feature width) element-wise share grows, on MVL sort share is higher.
	share := func(mk func(*Env) *datasets.Bipartite) (sort, elem float64) {
		env, prof := testEnv(11)
		ds := mk(env)
		w := NewPSAGE(env, ds, PSAGEConfig{Hidden: 32, BatchSize: 32, Batches: 2})
		prof.Reset()
		w.TrainEpoch()
		r := prof.Snapshot()
		return r.TimeShare[gpu.OpSort], r.TimeShare[gpu.OpElementWise]
	}
	mvlSort, mvlElem := share(func(env *Env) *datasets.Bipartite { return datasets.MovieLens(env.RNG) })
	nwpSort, nwpElem := share(func(env *Env) *datasets.Bipartite { return datasets.NowPlaying(env.RNG) })
	if nwpElem <= mvlElem {
		t.Errorf("NWP element-wise share (%.3f) should exceed MVL's (%.3f)", nwpElem, mvlElem)
	}
	if mvlSort <= nwpSort {
		t.Errorf("MVL sort share (%.3f) should exceed NWP's (%.3f)", mvlSort, nwpSort)
	}
}

func TestKGNNHCostlierThanKGNNL(t *testing.T) {
	run := func(k int) float64 {
		env, _ := testEnv(12)
		ds := datasets.Proteins(env.RNG)
		ds.Graphs = ds.Graphs[:16]
		ds.Features = ds.Features[:16]
		ds.Labels = ds.Labels[:16]
		w := NewKGNN(env, ds, KGNNConfig{K: k, Hidden: 16, BatchSize: 8})
		env.E.Device().ResetClock()
		w.TrainEpoch()
		return env.E.Device().ElapsedSeconds()
	}
	if run(3) <= run(2) {
		t.Fatal("KGNNH (k=3) should cost more than KGNNL (k=2)")
	}
}

func TestWorkloadsDeterministicPerSeed(t *testing.T) {
	lossOf := func() float64 {
		env, _ := testEnv(13)
		w := buildSmall("DGCN", env)
		return w.TrainEpoch()
	}
	a, b := lossOf(), lossOf()
	if a != b {
		t.Fatalf("training not deterministic: %v vs %v", a, b)
	}
}

func TestDNNBaselineTrains(t *testing.T) {
	env, prof := testEnv(20)
	m := NewDNN(env, DNNConfig{ImageSize: 12, Channels: []int{8, 16}, BatchSize: 8, Batches: 2})
	if m.IterationsPerEpoch() != 2 {
		t.Fatal("DNN metadata wrong")
	}
	prof.Reset()
	first := m.TrainEpoch()
	if env.Sharded() {
		t.Fatal("the DNN trains the whole image set: it must not shard")
	}
	var last float64
	for i := 0; i < 8; i++ {
		last = m.TrainEpoch()
	}
	if math.IsNaN(last) || last >= first {
		t.Fatalf("DNN did not learn: %.4f -> %.4f", first, last)
	}
	if prof.Class(gpu.OpConv).Kernels == 0 || prof.Class(gpu.OpGEMM).Kernels == 0 {
		t.Fatal("DNN must emit conv and GEMM kernels")
	}
}

func TestInferenceModeSkipsBackward(t *testing.T) {
	env, prof := testEnv(21)
	env.Training = false
	w := buildSmall("DGCN", env)
	prof.Reset()
	w.TrainEpoch()
	inferKernels := prof.Snapshot().Kernels

	env2, prof2 := testEnv(21)
	w2 := buildSmall("DGCN", env2)
	prof2.Reset()
	w2.TrainEpoch()
	trainKernels := prof2.Snapshot().Kernels

	if inferKernels >= trainKernels {
		t.Fatalf("inference kernels %d not below training %d", inferKernels, trainKernels)
	}
}
