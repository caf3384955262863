package bench

import (
	"sync"
	"testing"

	"gnnmark/internal/core"
	"gnnmark/internal/ddp"
	"gnnmark/internal/gpu"
)

// The paper's headline findings, encoded as assertions over a suite
// characterization. Thresholds are looser than the paper's point estimates
// — the substrate is a model, not a V100 — but each assertion pins the
// qualitative shape a regression would break.

var (
	suiteOnce sync.Once
	suiteVal  *Suite
	suiteErr  error
)

func characterizedSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = Characterize(core.RunConfig{Epochs: 1, Seed: 1, SampledWarps: 1024})
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteVal
}

func TestClaimGEMMSpMMShareBelowDNNLevels(t *testing.T) {
	// Paper §V-A: only ~25% of execution is GEMM+SpMM, in stark contrast to
	// DNN workloads where GEMM dominates.
	s := characterizedSuite(t)
	a := s.Averages()
	if a.GEMMSpMMShare >= 0.40 {
		t.Fatalf("GEMM+SpMM share = %.1f%%, want well under DNN-like levels (<40%%)",
			100*a.GEMMSpMMShare)
	}
	if a.GraphOpShare <= 0.05 {
		t.Fatalf("graph-op share = %.1f%%, want a substantial aggregate", 100*a.GraphOpShare)
	}
}

func TestClaimSTGCNConvDominates(t *testing.T) {
	// Paper: STGCN is dominated by 2D convolutions; no other workload has a
	// meaningful Conv share.
	s := characterizedSuite(t)
	stgcn := s.Find("STGCN")
	if stgcn == nil {
		t.Fatal("no STGCN run")
	}
	if conv := stgcn.Report.TimeShare[gpu.OpConv]; conv < 0.25 {
		t.Fatalf("STGCN conv share = %.1f%%, want >= 25%%", 100*conv)
	}
	for _, r := range s.Results {
		if r.Label() != "STGCN" && r.Report.TimeShare[gpu.OpConv] > stgcn.Report.TimeShare[gpu.OpConv]/2 {
			t.Fatalf("%s conv share rivals STGCN's", r.Label())
		}
	}
}

func TestClaimDGCNElementWiseHeavy(t *testing.T) {
	// Paper: DGCN is dominated by element-wise operations (~31%): residual
	// adds, activations, and norms at every deep layer.
	s := characterizedSuite(t)
	d := s.Find("DGCN")
	if d == nil {
		t.Fatal("no DGCN run")
	}
	if ew := d.Report.TimeShare[gpu.OpElementWise]; ew < 0.30 {
		t.Fatalf("DGCN element-wise share = %.1f%%, want >= 30%%", 100*ew)
	}
}

func TestClaimPSAGEDatasetDependence(t *testing.T) {
	// Paper: PSAGE on MVL spends 20.7% sorting; on NWP (10x features) the
	// element-wise share grows and sorting's shrinks.
	s := characterizedSuite(t)
	mvl, nwp := s.Find("PSAGE(MVL)"), s.Find("PSAGE(NWP)")
	if mvl == nil || nwp == nil {
		t.Fatal("missing PSAGE runs")
	}
	if sort := mvl.Report.TimeShare[gpu.OpSort]; sort < 0.10 {
		t.Fatalf("PSAGE/MVL sort share = %.1f%%, want >= 10%%", 100*sort)
	}
	if nwp.Report.TimeShare[gpu.OpElementWise] <= mvl.Report.TimeShare[gpu.OpElementWise] {
		t.Fatal("NWP element-wise share must exceed MVL's")
	}
	if mvl.Report.TimeShare[gpu.OpSort] <= nwp.Report.TimeShare[gpu.OpSort] {
		t.Fatal("MVL sort share must exceed NWP's")
	}
}

func TestClaimInstructionMixShape(t *testing.T) {
	// Paper: integer work is a first-class citizen in GNN training; GW is
	// the most fp-dominated workload (GEMM/attention heavy).
	s := characterizedSuite(t)
	a := s.Averages()
	if a.IntShare < 0.20 {
		t.Fatalf("avg int share = %.1f%%, want a substantial integer component", 100*a.IntShare)
	}
	gw := s.Find("GW")
	if gw.Report.FpShare <= gw.Report.IntShare {
		t.Fatal("GW must be fp-dominated")
	}
	// Index/sort-heavy workloads carry above-average integer shares.
	for _, lbl := range []string{"PSAGE(MVL)", "TLSTM"} {
		if r := s.Find(lbl); r.Report.IntShare < a.IntShare {
			t.Fatalf("%s int share %.1f%% below suite average %.1f%%",
				lbl, 100*r.Report.IntShare, 100*a.IntShare)
		}
	}
}

func TestClaimGFLOPSOrdering(t *testing.T) {
	// Paper Fig. 4: GW achieves the suite's highest fp32 rate (~2 TFLOPS);
	// TLSTM the lowest (74 GFLOPS); everything far below the 14 TFLOPS peak.
	s := characterizedSuite(t)
	gw, tlstm := s.Find("GW"), s.Find("TLSTM")
	for _, r := range s.Results {
		if r.Label() != "GW" && r.Report.GFLOPS > gw.Report.GFLOPS {
			t.Fatalf("%s (%.0f GFLOPS) exceeds GW (%.0f)", r.Label(), r.Report.GFLOPS, gw.Report.GFLOPS)
		}
		if r.Label() != "TLSTM" && r.Report.GFLOPS < tlstm.Report.GFLOPS {
			t.Fatalf("%s (%.0f GFLOPS) below TLSTM (%.0f)", r.Label(), r.Report.GFLOPS, tlstm.Report.GFLOPS)
		}
		if r.Report.GFLOPS > 0.6*gpu.V100().PeakGFLOPS() {
			t.Fatalf("%s implausibly close to peak", r.Label())
		}
	}
	if gw.Report.GFLOPS < 1000 {
		t.Fatalf("GW = %.0f GFLOPS, want TFLOPS-class", gw.Report.GFLOPS)
	}
	if tlstm.Report.GFLOPS > 300 {
		t.Fatalf("TLSTM = %.0f GFLOPS, want low (launch-bound)", tlstm.Report.GFLOPS)
	}

	// Per-op rates: GEMM well above the irregular aggregation classes
	// (paper: "GEMM operations typically have a higher GFLOPS ... as
	// opposed to reductions, scatters and gathers").
	agg := s.aggregateClasses()
	gemmStats := agg[gpu.OpGEMM]
	gemm := (&gemmStats).GFLOPS()
	for _, c := range []gpu.OpClass{gpu.OpScatter, gpu.OpReduction, gpu.OpGather} {
		cs, ok := agg[c]
		if !ok {
			continue
		}
		if rate := (&cs).GFLOPS(); rate > gemm/2 {
			t.Fatalf("%v GFLOPS (%.0f) rivals GEMM's (%.0f)", c, rate, gemm)
		}
	}
}

func TestClaimStallShape(t *testing.T) {
	// Paper Fig. 5: memory dependency is the largest stall category
	// (34.3%), with execution dependency (29.5%) and instruction fetch
	// (21.6%) both significant.
	s := characterizedSuite(t)
	a := s.Averages()
	st := a.Stalls
	if !(st.MemoryDep > st.ExecDep && st.MemoryDep > st.InstrFetch) {
		t.Fatalf("memory dependency must lead: %+v", st)
	}
	if st.ExecDep < 0.12 {
		t.Fatalf("exec-dependency stalls = %.1f%%, want significant", 100*st.ExecDep)
	}
	if st.InstrFetch < 0.08 {
		t.Fatalf("instruction-fetch stalls = %.1f%%, want significant", 100*st.InstrFetch)
	}
}

func TestClaimCacheHierarchyShape(t *testing.T) {
	// Paper Fig. 6: L1 hit rates are very low (~15% average) while L2 fares
	// far better (~70%); GEMM/SpMM L1 locality is poor.
	s := characterizedSuite(t)
	a := s.Averages()
	if a.L1HitRate > 0.30 {
		t.Fatalf("avg L1 hit rate = %.1f%%, want low (<30%%)", 100*a.L1HitRate)
	}
	if a.L2HitRate < 1.5*a.L1HitRate {
		t.Fatalf("L2 (%.1f%%) must fare far better than L1 (%.1f%%)",
			100*a.L2HitRate, 100*a.L1HitRate)
	}
}

func TestClaimIrregularOpsDiverge(t *testing.T) {
	// Paper: scatter/gather/index-select exhibit irregular access patterns:
	// high divergence and poor locality versus GEMM/Conv.
	s := characterizedSuite(t)
	agg := s.aggregateClasses()
	for _, c := range []gpu.OpClass{gpu.OpSpMM, gpu.OpGather, gpu.OpIndexSelect} {
		cs := agg[c]
		if cs.DivergenceRate() < 0.40 {
			t.Fatalf("%v divergence = %.1f%%, want high", c, 100*cs.DivergenceRate())
		}
	}
	for _, c := range []gpu.OpClass{gpu.OpGEMM, gpu.OpConv} {
		cs := agg[c]
		if cs.DivergenceRate() > 0.05 {
			t.Fatalf("%v divergence = %.1f%%, want coalesced", c, 100*cs.DivergenceRate())
		}
	}
}

func TestClaimTransferSparsity(t *testing.T) {
	// Paper Fig. 7: substantial average sparsity (43.2%); PSAGE/MVL (22%)
	// sparser than PSAGE/NWP (11%); ARGA's bag-of-words transfers extreme.
	s := characterizedSuite(t)
	a := s.Averages()
	if a.AvgSparsity < 0.25 {
		t.Fatalf("avg transfer sparsity = %.1f%%, want substantial", 100*a.AvgSparsity)
	}
	mvl, nwp := s.Find("PSAGE(MVL)"), s.Find("PSAGE(NWP)")
	if mvl.Report.AvgSparsity <= nwp.Report.AvgSparsity {
		t.Fatal("MVL transfers must be sparser than NWP's")
	}
	if arga := s.Find("ARGA(cora)"); arga.Report.AvgSparsity < 0.80 {
		t.Fatalf("ARGA sparsity = %.1f%%, want very high", 100*arga.Report.AvgSparsity)
	}
}

func TestClaimSparsityTimelinePredictable(t *testing.T) {
	// Paper Fig. 8: sparsity over iterations follows a clear, repeating
	// pattern. With two epochs over a fixed schedule, iteration i and
	// i+itersPerEpoch must match.
	s2, err := Characterize(core.RunConfig{Epochs: 2, Seed: 3, SampledWarps: 512})
	if err != nil {
		t.Fatal(err)
	}
	mvl := s2.Find("PSAGE(MVL)")
	tl := mvl.SparsityTimeline
	half := len(tl) / 2
	if half < 2 {
		t.Fatal("timeline too short")
	}
	for i := 1; i < half; i++ { // skip iteration 0 (construction tagging)
		d := tl[i] - tl[i+half]
		if d < -0.02 || d > 0.02 {
			t.Fatalf("timeline not periodic at %d: %.3f vs %.3f", i, tl[i], tl[i+half])
		}
	}
}

func TestClaimCompressionRatio(t *testing.T) {
	if CompressionRatio(0) != 1 {
		t.Fatal("dense data must not compress")
	}
	if r := CompressionRatio(0.5); r < 1.5 || r > 2.1 {
		t.Fatalf("50%% sparsity ratio = %.2f", r)
	}
	if CompressionRatio(0.9) <= CompressionRatio(0.5) {
		t.Fatal("ratio must grow with sparsity")
	}
}

var (
	fig9Once sync.Once
	fig9Val  []ScalingResult
	fig9Err  error
)

// executedFig9 runs the executed-engine scaling study once and shares it
// across the claim tests (Cluster training at three world sizes per
// workload is the most expensive fixture in this package).
func executedFig9(t *testing.T) []ScalingResult {
	t.Helper()
	fig9Once.Do(func() {
		fig9Val, fig9Err = Fig9(core.RunConfig{Seed: 1, SampledWarps: 1024})
	})
	if fig9Err != nil {
		t.Fatal(fig9Err)
	}
	return fig9Val
}

func TestClaimMultiGPUScalingShape(t *testing.T) {
	// Paper Fig. 9: DGCN, STGCN and GW gain considerably; TLSTM does not
	// benefit; PSAGE degrades (replicated data). ARGA excluded.
	results := executedFig9(t)
	byName := map[string][]float64{}
	for _, sr := range results {
		byName[sr.Workload] = []float64{
			sr.Results[0].Speedup, sr.Results[1].Speedup, sr.Results[2].Speedup,
		}
	}
	if byName["STGCN"][2] < 1.4 {
		t.Fatalf("STGCN 4-GPU speedup = %.2f, want considerable (>= 1.4)", byName["STGCN"][2])
	}
	for _, w := range []string{"DGCN", "GW"} {
		if byName[w][2] < 1.2 {
			t.Fatalf("%s 4-GPU speedup = %.2f, want gains (>= 1.2)", w, byName[w][2])
		}
		if byName[w][2] <= byName["TLSTM"][2] {
			t.Fatalf("%s must scale better than launch-bound TLSTM", w)
		}
	}
	if byName["TLSTM"][2] > 1.25 {
		t.Fatalf("TLSTM 4-GPU speedup = %.2f, want flat", byName["TLSTM"][2])
	}
	if byName["PSAGE"][2] >= 1.0 {
		t.Fatalf("PSAGE 4-GPU speedup = %.2f, want degradation", byName["PSAGE"][2])
	}
	if byName["PSAGE"][2] > byName["PSAGE"][1] {
		t.Fatal("PSAGE degradation must be monotone")
	}
	for _, sr := range results {
		if sr.Workload == "ARGA" {
			t.Fatal("ARGA must be excluded from the scaling study")
		}
	}
}

func TestClaimExecutedEngineCommShape(t *testing.T) {
	// Executed-engine refinements of Fig. 9: the per-bucket allreduce
	// timeline — not a closed-form estimate — must reproduce the paper's
	// communication story.
	results := executedFig9(t)
	at4 := map[string]ddp.ClusterResult{}
	for _, sr := range results {
		for _, r := range sr.Results {
			if r.GPUs == 4 {
				at4[sr.Workload] = r
			}
		}
	}

	// Among the workloads that scale at all (4-GPU speedup > 1), GW — the
	// deepest parameter stack, hence the most allreduce bytes — scales
	// worst while still gaining.
	var scalable []string
	for w, r := range at4 {
		if !r.Replicated && r.Speedup > 1 {
			scalable = append(scalable, w)
		}
	}
	if len(scalable) < 3 {
		t.Fatalf("expected >= 3 scalable workloads, got %v", scalable)
	}
	gw := at4["GW"]
	if gw.Speedup <= 1 {
		t.Fatalf("GW 4-GPU speedup = %.2f, must still gain", gw.Speedup)
	}
	for _, w := range scalable {
		if w != "GW" && at4[w].Speedup < gw.Speedup {
			t.Fatalf("GW (%.2fx) must be the worst-scaling scalable workload, but %s is %.2fx",
				gw.Speedup, w, at4[w].Speedup)
		}
	}
	// ...and it pays the most allreduce wall time of every sharded workload.
	for w, r := range at4 {
		if w != "GW" && !r.Replicated && r.CommSeconds >= gw.CommSeconds {
			t.Fatalf("GW comm %.3gs must dominate sharded workloads, but %s has %.3gs",
				gw.CommSeconds, w, r.CommSeconds)
		}
	}
	// Bucketing must actually overlap some of that cost with backward.
	if gw.Buckets < 2 || gw.OverlappedCommSeconds <= 0 {
		t.Fatalf("GW must hide comm behind backward: %d buckets, %.3gs hidden",
			gw.Buckets, gw.OverlappedCommSeconds)
	}

	// PSAGE cannot shard (replicated fallback) and never reaches 1x.
	psage := at4["PSAGE"]
	if !psage.Replicated || psage.Speedup >= 1 {
		t.Fatalf("PSAGE must run replicated below 1x, got replicated=%v %.2fx",
			psage.Replicated, psage.Speedup)
	}
	// TLSTM is launch-bound, not comm-bound: near-flat either way.
	tlstm := at4["TLSTM"]
	if tlstm.Speedup < 0.85 || tlstm.Speedup > 1.25 {
		t.Fatalf("TLSTM 4-GPU speedup = %.2f, want near-flat", tlstm.Speedup)
	}

	// Timeline accounting must be internally consistent everywhere.
	for w, r := range at4 {
		if d := r.CommSeconds - (r.ExposedCommSeconds + r.OverlappedCommSeconds); d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s: comm %.3g != exposed %.3g + hidden %.3g",
				w, r.CommSeconds, r.ExposedCommSeconds, r.OverlappedCommSeconds)
		}
	}
}

func TestFigureFormattersProduceOutput(t *testing.T) {
	s := characterizedSuite(t)
	for name, text := range map[string]string{
		"table1": Table1(),
		"fig2":   s.Fig2(),
		"fig3":   s.Fig3(),
		"fig4":   s.Fig4(),
		"fig5":   s.Fig5(),
		"fig6":   s.Fig6(),
		"fig7":   s.Fig7(),
		"fig8":   s.Fig8(),
	} {
		if len(text) < 100 {
			t.Fatalf("%s output suspiciously short:\n%s", name, text)
		}
	}
	if s.Find("PSAGE(MVL)") == nil || s.Find("nope") != nil {
		t.Fatal("Find broken")
	}
}
