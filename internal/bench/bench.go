// Package bench regenerates every table and figure of the paper's
// evaluation (Table I, Figures 2-9) from characterization runs of the
// suite. Each figure has a formatter that prints the same rows/series the
// paper plots; cmd/gnnmark and the repository-level benchmarks call these.
package bench

import (
	"fmt"
	"strings"

	"gnnmark/internal/core"
	"gnnmark/internal/datasets"
	"gnnmark/internal/ddp"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/profiler"
)

// Suite is a cached suite-wide characterization: one run per workload
// (PSAGE on both datasets), shared by all figure formatters.
type Suite struct {
	Results []core.RunResult
	Config  core.RunConfig
}

// Characterize runs the full suite with the given settings.
func Characterize(cfg core.RunConfig) (*Suite, error) {
	results, err := core.RunSuite(cfg)
	if err != nil {
		return nil, err
	}
	return &Suite{Results: results, Config: cfg}, nil
}

// Averages holds the unweighted cross-workload means the paper quotes in
// prose ("on average, 64% of executed instructions are integer...").
type Averages struct {
	IntShare, FpShare    float64
	GFLOPS, GIOPS, IPC   float64
	L1HitRate, L2HitRate float64
	DivergenceRate       float64
	Stalls               gpu.StallBreakdown
	AvgSparsity          float64
	GEMMSpMMShare        float64
	GraphOpShare         float64
}

// Averages computes cross-workload means over the suite's runs.
func (s *Suite) Averages() Averages {
	var a Averages
	n := float64(len(s.Results))
	for _, r := range s.Results {
		rep := r.Report
		a.IntShare += rep.IntShare
		a.FpShare += rep.FpShare
		a.GFLOPS += rep.GFLOPS
		a.GIOPS += rep.GIOPS
		a.IPC += rep.IPC
		a.L1HitRate += rep.L1HitRate
		a.L2HitRate += rep.L2HitRate
		a.DivergenceRate += rep.DivergenceRate
		a.Stalls.Add(rep.Stalls)
		a.AvgSparsity += rep.AvgSparsity
		a.GEMMSpMMShare += rep.GEMMSpMMTimeShare()
		a.GraphOpShare += rep.GraphOpTimeShare()
	}
	a.IntShare /= n
	a.FpShare /= n
	a.GFLOPS /= n
	a.GIOPS /= n
	a.IPC /= n
	a.L1HitRate /= n
	a.L2HitRate /= n
	a.DivergenceRate /= n
	a.Stalls = a.Stalls.Scale(1 / n)
	a.AvgSparsity /= n
	a.GEMMSpMMShare /= n
	a.GraphOpShare /= n
	return a
}

// Find returns the run with the given label ("PSAGE(MVL)" or "STGCN"),
// or nil.
func (s *Suite) Find(label string) *core.RunResult {
	for i := range s.Results {
		if s.Results[i].Label() == label {
			return &s.Results[i]
		}
	}
	return nil
}

// Table1 renders the suite inventory (paper Table I).
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: GNNMark workloads\n")
	fmt.Fprintf(&b, "%-7s %-45s %-9s %-42s %s\n", "Key", "Model", "Framework", "Domain", "Datasets")
	for _, spec := range core.Registry() {
		fmt.Fprintf(&b, "%-7s %-45s %-9s %-42s %s\n",
			spec.Key, spec.Model, spec.Framework, spec.Domain, strings.Join(spec.Datasets, ", "))
	}
	return b.String()
}

// figure2Classes is the op-class display order of Figure 2.
var figure2Classes = []gpu.OpClass{
	gpu.OpGEMM, gpu.OpSpMM, gpu.OpConv, gpu.OpScatter, gpu.OpGather,
	gpu.OpReduction, gpu.OpIndexSelect, gpu.OpSort, gpu.OpElementWise,
	gpu.OpBatchNorm, gpu.OpEmbedding,
}

// Fig2 renders the execution-time breakdown by operation class.
func (s *Suite) Fig2() string {
	var b strings.Builder
	b.WriteString("Figure 2: execution time breakdown by operation (%)\n")
	fmt.Fprintf(&b, "%-12s", "workload")
	for _, c := range figure2Classes {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteString("\n")
	for _, r := range s.Results {
		fmt.Fprintf(&b, "%-12s", r.Label())
		for _, c := range figure2Classes {
			fmt.Fprintf(&b, "%12.1f", 100*r.Report.TimeShare[c])
		}
		b.WriteString("\n")
	}
	a := s.Averages()
	fmt.Fprintf(&b, "suite: GEMM+SpMM share %.1f%%, graph-op (scatter/gather/reduce/index/sort) share %.1f%%\n",
		100*a.GEMMSpMMShare, 100*a.GraphOpShare)
	return b.String()
}

// Fig3 renders the dynamic instruction mix.
func (s *Suite) Fig3() string {
	var b strings.Builder
	b.WriteString("Figure 3: dynamic instruction mix (%)\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s\n", "workload", "int32", "fp32", "other")
	for _, r := range s.Results {
		rep := r.Report
		fmt.Fprintf(&b, "%-12s %8.1f %8.1f %8.1f\n", r.Label(),
			100*rep.IntShare, 100*rep.FpShare, 100*rep.OtherShare)
	}
	a := s.Averages()
	fmt.Fprintf(&b, "%-12s %8.1f %8.1f %8.1f\n", "average",
		100*a.IntShare, 100*a.FpShare, 100*(1-a.IntShare-a.FpShare))
	return b.String()
}

// Fig4 renders achieved GFLOPS/GIOPS and IPC.
func (s *Suite) Fig4() string {
	var b strings.Builder
	b.WriteString("Figure 4: achieved GFLOPS / GIOPS (and IPC)\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %8s\n", "workload", "GFLOPS", "GIOPS", "IPC")
	for _, r := range s.Results {
		rep := r.Report
		fmt.Fprintf(&b, "%-12s %10.0f %10.0f %8.2f\n", r.Label(), rep.GFLOPS, rep.GIOPS, rep.IPC)
	}
	a := s.Averages()
	fmt.Fprintf(&b, "%-12s %10.0f %10.0f %8.2f\n", "average", a.GFLOPS, a.GIOPS, a.IPC)

	b.WriteString("\nper-operation achieved rates (suite aggregate):\n")
	fmt.Fprintf(&b, "%-12s %10s %10s\n", "op", "GFLOPS", "GIOPS")
	agg := s.aggregateClasses()
	for _, c := range figure2Classes {
		cs, ok := agg[c]
		if !ok || cs.Seconds == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %10.0f %10.0f\n", c, cs.GFLOPS(), cs.GIOPS())
	}
	return b.String()
}

// Fig5 renders the warp-stall breakdown per workload plus a per-op-class
// aggregate (the paper's Figure 5 second panel).
func (s *Suite) Fig5() string {
	var b strings.Builder
	b.WriteString("Figure 5: stall breakdown (%)\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s %8s\n",
		"workload", "memdep", "execdep", "ifetch", "sync", "other")
	for _, r := range s.Results {
		st := r.Report.Stalls
		fmt.Fprintf(&b, "%-12s %8.1f %8.1f %8.1f %8.1f %8.1f\n", r.Label(),
			100*st.MemoryDep, 100*st.ExecDep, 100*st.InstrFetch, 100*st.Sync, 100*st.Other)
	}
	a := s.Averages()
	fmt.Fprintf(&b, "%-12s %8.1f %8.1f %8.1f %8.1f %8.1f\n", "average",
		100*a.Stalls.MemoryDep, 100*a.Stalls.ExecDep, 100*a.Stalls.InstrFetch,
		100*a.Stalls.Sync, 100*a.Stalls.Other)

	b.WriteString("\nper-operation stall profile (suite aggregate):\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s\n", "op", "memdep", "execdep", "ifetch")
	agg := s.aggregateClasses()
	for _, c := range figure2Classes {
		cs, ok := agg[c]
		if !ok || cs.Seconds == 0 {
			continue
		}
		st := cs.StallsWeighted
		st.Normalize()
		fmt.Fprintf(&b, "%-12s %8.1f %8.1f %8.1f\n", c,
			100*st.MemoryDep, 100*st.ExecDep, 100*st.InstrFetch)
	}
	return b.String()
}

// aggregateClasses merges per-class stats across the suite's runs.
func (s *Suite) aggregateClasses() map[gpu.OpClass]profiler.ClassStats {
	agg := map[gpu.OpClass]profiler.ClassStats{}
	for _, r := range s.Results {
		for c, cs := range r.PerClass {
			a := agg[c]
			a.Seconds += cs.Seconds
			a.Kernels += cs.Kernels
			a.L1Hits += cs.L1Hits
			a.L1Misses += cs.L1Misses
			a.L2Hits += cs.L2Hits
			a.L2Misses += cs.L2Misses
			a.LoadWarps += cs.LoadWarps
			a.DivergentLoads += cs.DivergentLoads
			a.Flops += cs.Flops
			a.Iops += cs.Iops
			a.StallsWeighted.Add(cs.StallsWeighted)
			agg[c] = a
		}
	}
	return agg
}

// Fig6 renders cache hit rates and memory divergence.
func (s *Suite) Fig6() string {
	var b strings.Builder
	b.WriteString("Figure 6: cache hit rates and divergent loads (%)\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %10s\n", "workload", "L1", "L2", "divergent")
	for _, r := range s.Results {
		rep := r.Report
		fmt.Fprintf(&b, "%-12s %8.1f %8.1f %10.1f\n", r.Label(),
			100*rep.L1HitRate, 100*rep.L2HitRate, 100*rep.DivergenceRate)
	}
	a := s.Averages()
	fmt.Fprintf(&b, "%-12s %8.1f %8.1f %10.1f\n", "average",
		100*a.L1HitRate, 100*a.L2HitRate, 100*a.DivergenceRate)

	b.WriteString("\nper-operation locality (suite aggregate):\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %10s\n", "op", "L1", "L2", "divergent")
	agg := s.aggregateClasses()
	for _, c := range figure2Classes {
		cs, ok := agg[c]
		if !ok || cs.Kernels == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %8.1f %8.1f %10.1f\n", c,
			100*cs.L1HitRate(), 100*cs.L2HitRate(), 100*cs.DivergenceRate())
	}
	return b.String()
}

// CompressionRatio estimates the zero-run-length compression ratio of a
// transfer stream with the given zero fraction (the paper's suggested
// mitigation for training graphs larger than GPU memory).
func CompressionRatio(sparsity float64) float64 {
	if sparsity <= 0 {
		return 1
	}
	// Nonzero values ship verbatim; zero runs collapse to ~1/16 via a
	// bitmap. Ratio = original/compressed.
	compressed := (1 - sparsity) + sparsity/16
	return 1 / compressed
}

// Fig7 renders the average H2D transfer sparsity per workload, with the
// compression-estimate extension.
func (s *Suite) Fig7() string {
	var b strings.Builder
	b.WriteString("Figure 7: average sparsity of CPU->GPU transfers (%)\n")
	fmt.Fprintf(&b, "%-12s %10s %12s %12s\n", "workload", "sparsity", "H2D MB", "est.compr")
	for _, r := range s.Results {
		rep := r.Report
		fmt.Fprintf(&b, "%-12s %10.1f %12.2f %11.2fx\n", r.Label(),
			100*rep.AvgSparsity, float64(rep.H2DBytes)/(1<<20), CompressionRatio(rep.AvgSparsity))
	}
	a := s.Averages()
	fmt.Fprintf(&b, "%-12s %10.1f\n", "average", 100*a.AvgSparsity)
	return b.String()
}

// Fig8 renders the sparsity-vs-iteration series of representative
// workloads.
func (s *Suite) Fig8() string {
	var b strings.Builder
	b.WriteString("Figure 8: transfer sparsity over training iterations (%)\n")
	for _, r := range s.Results {
		if len(r.SparsityTimeline) < 2 {
			continue
		}
		fmt.Fprintf(&b, "%-12s:", r.Label())
		limit := len(r.SparsityTimeline)
		if limit > 24 {
			limit = 24
		}
		for _, v := range r.SparsityTimeline[:limit] {
			fmt.Fprintf(&b, " %5.1f", 100*v)
		}
		if limit < len(r.SparsityTimeline) {
			b.WriteString(" ...")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ScalingResult is one workload's Figure 9 series.
type ScalingResult struct {
	Workload string
	Results  []ddp.ClusterResult
}

// Fig9Workloads lists the multi-GPU study's workloads: everything except
// ARGA (excluded in the paper because it trains full-graph).
var Fig9Workloads = []string{"PSAGE", "STGCN", "DGCN", "GW", "KGNNL", "KGNNH", "TLSTM"}

// fig9Build constructs each workload in its multi-GPU study configuration:
// large global batches over few iterations, so per-iteration compute
// dominates launch overhead as it does at the paper's production scale.
// Small-batch configs would make every workload look launch-bound.
func fig9Build(key string, env *models.Env) models.Workload {
	switch key {
	case "PSAGE":
		return models.NewPSAGE(env, datasets.MovieLens(env.RNG),
			models.PSAGEConfig{BatchSize: 64, Batches: 2})
	case "STGCN":
		return models.NewSTGCN(env, datasets.METRLA(env.RNG),
			models.STGCNConfig{Channels: 32, BatchSize: 48, Batches: 1})
	case "DGCN":
		return models.NewDGCN(env, datasets.MolHIV(env.RNG),
			models.DGCNConfig{BatchSize: 160, Layers: 7, Hidden: 128})
	case "GW":
		return models.NewGW(env, datasets.AGENDA(env.RNG),
			models.GWConfig{BatchSize: 48, Dim: 192, MaxDecode: 16})
	case "KGNNL":
		return models.NewKGNN(env, datasets.Proteins(env.RNG),
			models.KGNNConfig{K: 2, BatchSize: 120, Hidden: 64})
	case "KGNNH":
		return models.NewKGNN(env, datasets.Proteins(env.RNG),
			models.KGNNConfig{K: 3, BatchSize: 120, Hidden: 48})
	case "TLSTM":
		return models.NewTLSTM(env, datasets.SST(env.RNG),
			models.TLSTMConfig{BatchSize: 100})
	}
	panic("bench: unknown fig9 workload " + key)
}

// Fig9 runs the DDP strong-scaling study on 1/2/4 GPUs with the executed
// replication engine: every world size really trains G replicas over
// sharded batches and really ring-allreduces their gradient buckets, so the
// reported timeline breaks communication into exposed and overlapped parts.
func Fig9(cfg core.RunConfig) ([]ScalingResult, error) {
	var out []ScalingResult
	for _, key := range Fig9Workloads {
		// Every replica runs on slot 0's device model: the study scales the
		// paper's homogeneous node.
		factory := func(_, rank, world int) (w models.Workload, env *models.Env, err error) {
			env, err = cfg.Build(0, rank, world, func(env *models.Env) { w = fig9Build(key, env) })
			return w, env, err
		}
		res, err := ddp.ExecutedStrongScaling(factory, []int{1, 2, 4}, ddp.ClusterConfig{})
		if err != nil {
			return nil, err
		}
		out = append(out, ScalingResult{Workload: key, Results: res})
	}
	return out, nil
}

// FormatFig9 renders the scaling study: the speedup table, and the
// per-workload compute/comm/overlap breakdown at the largest world size.
func FormatFig9(results []ScalingResult) string {
	var b strings.Builder
	b.WriteString("Figure 9: multi-GPU strong scaling (speedup vs 1 GPU)\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %s\n", "workload", "1 GPU", "2 GPU", "4 GPU", "note")
	for _, sr := range results {
		note := ""
		if len(sr.Results) > 1 && sr.Results[1].Replicated {
			note = "replicated (sampler not DDP-compatible)"
		}
		fmt.Fprintf(&b, "%-10s %8.2f %8.2f %8.2f %s\n", sr.Workload,
			sr.Results[0].Speedup, sr.Results[1].Speedup, sr.Results[2].Speedup, note)
	}
	b.WriteString("\nExecuted-engine timeline at 4 GPUs (per epoch, ms)\n")
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %9s %8s\n",
		"workload", "compute", "comm", "exposed", "hidden", "buckets")
	for _, sr := range results {
		r := sr.Results[len(sr.Results)-1]
		fmt.Fprintf(&b, "%-10s %9.3f %9.3f %9.3f %9.3f %8d\n", sr.Workload,
			1e3*r.ComputeSeconds, 1e3*r.CommSeconds,
			1e3*r.ExposedCommSeconds, 1e3*r.OverlappedCommSeconds, r.Buckets)
	}
	b.WriteString("(ARGA excluded: full-graph training does not shard, as in the paper)\n")
	return b.String()
}
