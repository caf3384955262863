package bench

import (
	"strings"
	"testing"

	"gnnmark/internal/core"
	"gnnmark/internal/gpu"
)

func extCfg() core.RunConfig {
	return core.RunConfig{Epochs: 1, Seed: 2, SampledWarps: 512}
}

func TestDNNBaselineIsDenseMathDominated(t *testing.T) {
	// The paper's central contrast: a conventional DNN's execution is
	// dominated by convolution and GEMM, unlike every GNN workload.
	rep, err := DNNBaseline(extCfg())
	if err != nil {
		t.Fatal(err)
	}
	dense := rep.TimeShare[gpu.OpGEMM] + rep.TimeShare[gpu.OpConv]
	if dense < 0.50 {
		t.Fatalf("DNN GEMM+Conv share = %.1f%%, want dominant (>= 50%%)", 100*dense)
	}
	// Pooling shows up as reduction/scatter (CNNs do pool); the indexing
	// operations that distinguish GNN training must be absent.
	indexing := rep.TimeShare[gpu.OpSort] + rep.TimeShare[gpu.OpIndexSelect] +
		rep.TimeShare[gpu.OpGather] + rep.TimeShare[gpu.OpSpMM] + rep.TimeShare[gpu.OpEmbedding]
	if indexing > 0.01 {
		t.Fatalf("DNN indexing-op share = %.1f%%, want ~0", 100*indexing)
	}
	if rep.GraphOpTimeShare() > 0.15 {
		t.Fatalf("DNN graph-op share = %.1f%% (pooling only), want small", 100*rep.GraphOpTimeShare())
	}
	// And it must exceed the GNN suite's dense share by a wide margin.
	s := characterizedSuite(t)
	a := s.Averages()
	gnnDense := a.GEMMSpMMShare + convShare(s)
	if dense < gnnDense+0.15 {
		t.Fatalf("DNN dense share (%.1f%%) does not clearly exceed GNN suite's (%.1f%%)",
			100*dense, 100*gnnDense)
	}
}

func TestDNNContrastFormat(t *testing.T) {
	dnn, err := DNNBaseline(extCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := FormatContrast(characterizedSuite(t), dnn)
	for _, frag := range []string{"GNN suite", "DNN", "int32"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("contrast output missing %q", frag)
		}
	}
}

func TestInferenceContrast(t *testing.T) {
	cfg := extCfg()
	cfg.Workload = "DGCN"
	train, infer, err := InferenceContrast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Inference runs strictly fewer kernels (no backward, no optimizer) and
	// takes less time.
	if infer.Kernels >= train.Kernels {
		t.Fatalf("inference kernels (%d) not below training's (%d)", infer.Kernels, train.Kernels)
	}
	if infer.KernelSeconds >= train.KernelSeconds {
		t.Fatal("inference must be faster than training")
	}
	// Paper (vs Yan et al.): inference is more GEMM-concentrated than
	// training, which adds optimizer/backward element-wise work.
	if infer.GEMMSpMMTimeShare() <= train.GEMMSpMMTimeShare() {
		t.Fatalf("inference GEMM+SpMM share (%.1f%%) should exceed training's (%.1f%%)",
			100*infer.GEMMSpMMTimeShare(), 100*train.GEMMSpMMTimeShare())
	}
	out := FormatInference("DGCN", train, infer)
	if !strings.Contains(out, "train") || !strings.Contains(out, "infer") {
		t.Fatal("inference format broken")
	}
}

func TestL1BypassAblation(t *testing.T) {
	cfg := extCfg()
	cfg.Workload = "TLSTM"
	normal, bypassed, err := L1BypassAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if normal <= 0 || bypassed <= 0 {
		t.Fatal("ablation produced no time")
	}
	// TLSTM's L1 hit rate is ~10%: bypassing it should cost little — within
	// 40% either way (the paper's point is that L1 is nearly useless here).
	ratio := bypassed / normal
	if ratio < 0.6 || ratio > 1.4 {
		t.Fatalf("bypass ratio %.2f implausible for a low-L1-hit workload", ratio)
	}
}

func TestForwardOnlySkipsParameterUpdates(t *testing.T) {
	// Two forward-only epochs must produce identical losses (no learning).
	cfg := extCfg()
	cfg.Workload = "KGNNL"
	cfg.ForwardOnly = true
	cfg.Epochs = 2
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Losses[0] != res.Losses[1] {
		t.Fatalf("forward-only losses changed: %v", res.Losses)
	}
}

func TestGPUCompareOrdering(t *testing.T) {
	cfg := extCfg()
	cfg.Workload = "DGCN"
	reports, err := GPUCompare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, v, a := reports["p100"], reports["v100"], reports["a100"]
	if !(a.KernelSeconds < v.KernelSeconds && v.KernelSeconds < p.KernelSeconds) {
		t.Fatalf("kernel time not ordered across generations: p=%g v=%g a=%g",
			p.KernelSeconds, v.KernelSeconds, a.KernelSeconds)
	}
	// A100's 40 MB L2 holds more of the working set.
	if a.L2HitRate <= v.L2HitRate {
		t.Fatalf("A100 L2 hit rate %.2f not above V100's %.2f", a.L2HitRate, v.L2HitRate)
	}
	out := FormatGPUCompare("DGCN", reports)
	if !strings.Contains(out, "a100") || !strings.Contains(out, "GFLOPS") {
		t.Fatal("gpu compare format broken")
	}
}

func TestRooflineMostlyMemoryBound(t *testing.T) {
	// The paper: "GNN training is primarily memory bound". Every workload's
	// kernel time should be majority memory-bound on the roofline.
	cfg := extCfg()
	cfg.Workload = "PSAGE"
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	points := Roofline(res, gpu.V100())
	if len(points) == 0 {
		t.Fatal("no roofline points")
	}
	var mem, total float64
	for _, p := range points {
		total += p.Seconds
		if p.MemoryBound {
			mem += p.Seconds
		}
		if p.Intensity <= 0 || p.RoofGFLOPS <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
		if p.MemoryBound && p.RoofGFLOPS >= gpu.V100().PeakGFLOPS() {
			t.Fatalf("memory-bound point at compute roof: %+v", p)
		}
	}
	if mem < 0.5*total {
		t.Fatalf("memory-bound share = %.2f, want majority", mem/total)
	}
	out := FormatRoofline("PSAGE", points, gpu.V100())
	if !strings.Contains(out, "memory-bound share") {
		t.Fatal("roofline format broken")
	}
}

func TestSweepDGCNDepthScalesCost(t *testing.T) {
	points, err := Sweep("DGCN/layers", []int{4, 12}, extCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// Tripling the depth must cost roughly proportionally more.
	if points[1].EpochSeconds < 1.8*points[0].EpochSeconds {
		t.Fatalf("depth 12 (%.5fs) not clearly costlier than depth 4 (%.5fs)",
			points[1].EpochSeconds, points[0].EpochSeconds)
	}
	out := FormatSweep("DGCN/layers", points)
	if !strings.Contains(out, "epoch ms") {
		t.Fatal("sweep format broken")
	}
}

func TestSweepSTGCNChannelsShiftMixTowardConv(t *testing.T) {
	points, err := Sweep("STGCN/channels", []int{8, 32}, extCfg())
	if err != nil {
		t.Fatal(err)
	}
	lo := points[0].Report.TimeShare[gpu.OpConv]
	hi := points[1].Report.TimeShare[gpu.OpConv]
	if hi <= lo {
		t.Fatalf("wider channels should raise conv share: %.3f -> %.3f", lo, hi)
	}
}

func TestSweepRejectsUnknownKey(t *testing.T) {
	// The exact message: the key list ranged over a map and changed order
	// from run to run.
	const want = `bench: unknown sweep "DGCN/nope" (have [DGCN/hidden DGCN/layers GW/dim PSAGE/walks STGCN/channels TLSTM/batch])`
	if _, err := Sweep("DGCN/nope", []int{1}, extCfg()); err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
}

func TestInventories(t *testing.T) {
	ds := DatasetInventory(1)
	for _, frag := range []string{"MVL", "cora", "METR-LA", "AGENDA", "gini"} {
		if !strings.Contains(ds, frag) {
			t.Fatalf("dataset inventory missing %q", frag)
		}
	}
	mi := ModelInventory(1)
	for _, frag := range []string{"PSAGE", "TLSTM", "params"} {
		if !strings.Contains(mi, frag) {
			t.Fatalf("model inventory missing %q", frag)
		}
	}
}

func TestSuiteMetricsStableAcrossSeeds(t *testing.T) {
	// The paper reports stable epoch behavior; our synthetic datasets are
	// seeded, so the headline averages must not swing wildly with the seed.
	avg := func(seed int64) Averages {
		s, err := Characterize(core.RunConfig{Epochs: 1, Seed: seed, SampledWarps: 512})
		if err != nil {
			t.Fatal(err)
		}
		return s.Averages()
	}
	a, b := avg(5), avg(17)
	rel := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		d := (x - y) / y
		if d < 0 {
			return -d
		}
		return d
	}
	if rel(a.IntShare, b.IntShare) > 0.15 {
		t.Fatalf("int share unstable: %.3f vs %.3f", a.IntShare, b.IntShare)
	}
	if rel(a.L1HitRate, b.L1HitRate) > 0.5 {
		t.Fatalf("L1 hit rate unstable: %.3f vs %.3f", a.L1HitRate, b.L1HitRate)
	}
	if rel(a.AvgSparsity, b.AvgSparsity) > 0.2 {
		t.Fatalf("sparsity unstable: %.3f vs %.3f", a.AvgSparsity, b.AvgSparsity)
	}
	if rel(a.GEMMSpMMShare, b.GEMMSpMMShare) > 0.4 {
		t.Fatalf("GEMM+SpMM share unstable: %.3f vs %.3f", a.GEMMSpMMShare, b.GEMMSpMMShare)
	}
}
