package bench

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"gnnmark/internal/core"
	"gnnmark/internal/ddp"
	"gnnmark/internal/gpu"
	"gnnmark/internal/ops"
	"gnnmark/internal/serve"
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
	out := dnnContrastFigure(characterizedSuite(t), dnn).Text()
	for _, frag := range []string{"GNN suite", "DNN", "int32"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("contrast output missing %q", frag)
		}
	}
}

func TestInferenceContrast(t *testing.T) {
	cfg := extCfg()
	cfg.Workload = "DGCN"
	rs, err := contrast(core.Run, inferenceArms...)(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, infer := rs[0].Report, rs[1].Report
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
	// Every row of the printed figure has one cell under each column.
	f := inferenceFigure(rs)
	for _, row := range f.Rows {
		if len(row) != len(f.Columns) {
			t.Errorf("infer row %q has %d cells under %d columns", row[0].Text, len(row), len(f.Columns))
		}
	}
}

func TestL1BypassAblation(t *testing.T) {
	cfg := extCfg()
	cfg.Workload = "TLSTM"
	rs, err := contrast(core.Run, arm{}, l1BypassArm)(cfg)
	if err != nil {
		t.Fatal(err)
	}
	normal, bypassed := rs[0].Report.KernelSeconds, rs[1].Report.KernelSeconds
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
	rs, err := contrast(core.Run, gpuArms...)(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, v, a := rs[0].Report, rs[1].Report, rs[2].Report
	if !(a.KernelSeconds < v.KernelSeconds && v.KernelSeconds < p.KernelSeconds) {
		t.Fatalf("kernel time not ordered across generations: p=%g v=%g a=%g",
			p.KernelSeconds, v.KernelSeconds, a.KernelSeconds)
	}
	// A100's 40 MB L2 holds more of the working set.
	if a.L2HitRate <= v.L2HitRate {
		t.Fatalf("A100 L2 hit rate %.2f not above V100's %.2f", a.L2HitRate, v.L2HitRate)
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
	out := rooflineTable("PSAGE", points, gpu.V100()).Text()
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
	ds := datasetsFigure(1).Text()
	for _, frag := range []string{"MVL", "cora", "METR-LA", "AGENDA", "gini"} {
		if !strings.Contains(ds, frag) {
			t.Fatalf("dataset inventory missing %q", frag)
		}
	}
	mi, err := paramsFigure(Study{})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"PSAGE", "TLSTM", "params"} {
		if !strings.Contains(mi.Text(), frag) {
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

// smokeFigPart is the partitioned-execution study at the fidelity CI and
// TestCLI run it at, shared by its own test and the renderer test.
var smokeFigPart = sync.OnceValues(func() (*FigPartResult, error) {
	return FigPart(core.RunConfig{GPUs: 2, Epochs: 1, Seed: 1, SampledWarps: 64})
})

// TestFigPartShardsWhatDDPReplicates pins the study's three readings at two
// GPUs: the DDP arm of the full-graph workload is marked replicated, the
// partitioned arm cuts edges, and each partition's peak memory is below the
// single device's.
func TestFigPartShardsWhatDDPReplicates(t *testing.T) {
	res, err := smokeFigPart()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 2 || res.Workloads[1].Workload != "ARGA" || len(res.Cuts) != 2 {
		t.Fatalf("unexpected study shape: %+v", res)
	}
	for _, wl := range res.Workloads {
		one, two := wl.Part[0], wl.Part[1]
		if one.GPUs != 1 || two.GPUs != 2 || one.EdgeCut != 0 || two.EdgeCut == 0 {
			t.Errorf("%s: edge cut %d on %d GPU, %d on %d GPUs; want none on one and some on two",
				wl.Workload, one.EdgeCut, one.GPUs, two.EdgeCut, two.GPUs)
		}
		if worst := slices.Max(two.PeakBytes); worst >= one.PeakBytes[0] {
			t.Errorf("%s: per-GPU peak %d B two-way, %d B on one GPU; partitioning must shard the footprint",
				wl.Workload, worst, one.PeakBytes[0])
		}
	}
	arga := res.Figure().Panels[1]
	if ddp := arga.Rows[1][1].Text; !strings.HasSuffix(ddp, "*") {
		t.Errorf("ARGA's 2-GPU DDP epoch %q carries no replicated mark", ddp)
	}
	if ddp := res.Figure().Panels[0].Rows[1][1].Text; strings.HasSuffix(ddp, "*") {
		t.Errorf("DGCN shards under DDP, but its 2-GPU epoch reads %q", ddp)
	}
	if ddpEpochComm(res.Workloads[0].DDP[0]) != 0 || ddpEpochComm(res.Workloads[0].DDP[1]) == 0 {
		t.Error("the DDP ring moves bytes on two GPUs and none on one")
	}
}

// everyFigure builds the canonical record (Table I, Figures 2-9 and M), every
// other figure of the index, and the views that are figures without a row in
// it (`ttt`, `serve-bench`, `run -gpus N` on either plane): from a real run
// where that costs under a second, else from the shared fixtures or
// hand-made results.
func everyFigure(t *testing.T) []Figure {
	t.Helper()
	ev := evidence(t)
	runs := ev.Suite.Results
	shifted := append(slices.Clone(runs[1:]), runs[0])
	piped := slices.Clone(runs)
	for i := range piped {
		piped[i].Pipe = []ops.PipeEpoch{{SyncSeconds: 2e-3, PipeSeconds: 1.5e-3, ComputeBusy: 1.2e-3, CopyBusy: 6e-4, RawBytes: 1 << 20, EncodedBytes: 1 << 18}}
	}
	pairs := [][]core.RunResult{runs, shifted}
	part, err := smokeFigPart()
	if err != nil {
		t.Fatal(err)
	}
	healthy := ddp.ElasticResult{Goodput: 1, Survivors: []int{0, 1}}
	churned := ddp.ElasticResult{Goodput: 0.25, Survivors: []int{1}, Recoveries: 1}
	figF := &FigFResult{GPUs: 2, Epochs: 1, Seed: 1, Workloads: []FigFWorkload{{Workload: "ARGA", Levels: []FigFLevel{
		{Elastic: healthy, FailStop: healthy}, {Fatals: 1, Degraded: 2, Elastic: churned, FailStop: ddp.ElasticResult{Goodput: 0.01, Survivors: []int{0, 1}, Recoveries: 1}}}}}}
	figS := &FigSResult{ServeConfig: ServeConfig{Run: core.RunConfig{Workload: "PSAGE", Epochs: 1, Seed: 1}, Replicas: 2, QPS: 6213, Duration: 0.03, MaxWaitSeconds: 8e-5, QueueCap: 64},
		Dataset: "MVL", BatchOneSeconds: 8e-5, Arrived: 210,
		Rows: []FigSRow{{MaxBatch: 8, CacheRows: 256, Stats: serve.Stats{QPS: 6504, P50: 1e-6, P95: 1.7e-4, P99: 1.8e-4, MeanBatch: 1.28, CacheHits: 5, CacheMisses: 4, MaxQueueDepth: 4, MeanDeviceSeconds: 2.8e-5}}}}
	small := Study{RunConfig: core.RunConfig{Workload: "TLSTM", Epochs: 1, SampledWarps: 64}, Sweep: "TLSTM/batch", Values: []int{50}}
	out := append(append([]Figure{Table1()}, ev.Suite.Figures()...), Fig9Figure(ev.Scaling),
		figPTable(4, true, piped), part.Figure(), figF.Figure(),
		inferenceFigure(runs), dnnContrastFigure(ev.Suite, runs[1].Report), fp16Figure(pairs), l1BypassFigure(pairs), gpuCompareFigure(runs),
		rooflineTable(runs[0].Label(), Roofline(runs[0], ev.Suite.Device), ev.Suite.Device),
		datasetsFigure(1),
		TTTFigure(core.TTTResult{Workload: "ARGA", TargetLoss: 1.9, Epochs: 3, SimSeconds: 2.27e-3, LossCurve: []float64{2.24, 2.19, 2.123}}),
		figS.Figure(), StrongScalingFigure("PSAGE", ev.at("PSAGE")), PartitionedRunFigure("ARGA", part.Workloads[1].Part[1]))
	for _, id := range []string{"kernels", "sweep", "params"} {
		f, err := small.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	rendered := map[string]bool{}
	for _, f := range out {
		rendered[f.ID] = true
	}
	for _, st := range studies {
		if !rendered[st.id] {
			t.Errorf("the index has figure %q and this list does not", st.id)
		}
	}
	return out
}
