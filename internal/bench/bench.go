// Package bench regenerates every table and figure of the paper's
// evaluation (Table I, Figures 2-9) from characterization runs of the
// suite, and holds the paper's claims about them. Each figure is built once
// as a Figure value that the CLI prints and the HTML report renders; Claims
// is the one table the tests, `gnnmark all` and EXPERIMENTS.md judge it by.
package bench

import (
	"fmt"
	"strings"

	"gnnmark/internal/core"
	"gnnmark/internal/ddp"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/profiler"
	"gnnmark/internal/vmem"
)

// Suite is a cached suite-wide characterization: one run per workload
// (PSAGE on both datasets), shared by all figures.
type Suite struct {
	Results []core.RunResult
	Config  core.RunConfig
	// Device is the device model the runs used (Config's slot 0).
	Device gpu.Config
}

// Characterize runs the full suite with the given settings.
func Characterize(cfg core.RunConfig) (*Suite, error) {
	dev, err := cfg.DeviceConfig(0)
	if err != nil {
		return nil, err
	}
	results, err := core.RunSuite(cfg)
	if err != nil {
		return nil, err
	}
	return &Suite{Results: results, Config: cfg, Device: dev}, nil
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

// Table1 is the suite inventory (paper Table I).
func Table1() Figure {
	f := Figure{ID: "table1", Title: "Table I: GNNMark workloads", Columns: []Column{
		{"Key", -7, "%s", false}, {"Model", -45, "%s", false}, {"Framework", -9, "%s", false},
		{"Domain", -42, "%s", false}, {"Datasets", 0, "%s", false}}}
	for _, spec := range core.Registry() {
		f.add(spec.Key, spec.Model, spec.Framework, spec.Domain, strings.Join(spec.Datasets, ", "))
	}
	return f
}

// displayClasses is the op-class display order of every per-class table.
var displayClasses = []gpu.OpClass{
	gpu.OpGEMM, gpu.OpSpMM, gpu.OpConv, gpu.OpScatter, gpu.OpGather,
	gpu.OpReduction, gpu.OpIndexSelect, gpu.OpSort, gpu.OpElementWise,
	gpu.OpBatchNorm, gpu.OpEmbedding,
}

// Figures builds Figures 2-8 and M, in `gnnmark all` order; each id is also
// the CLI command that prints it.
func (s *Suite) Figures() []Figure {
	return []Figure{s.fig2(), s.fig3(), s.fig4(), s.fig5(), s.fig6(), s.fig7(), s.fig8(), s.figM()}
}

// Figure builds the figure with the given id ("fig2" ... "fig8", "figm").
func (s *Suite) Figure(id string) (Figure, error) {
	for _, f := range s.Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("bench: no figure %q", id)
}

// perWorkload fills f with one row per run and, when avg is given, the
// "average" row of cross-workload means.
func (s *Suite) perWorkload(f Figure, vals func(r *core.RunResult) []any, avg ...any) Figure {
	for i := range s.Results {
		r := &s.Results[i]
		f.add(append([]any{r.Label()}, vals(r)...)...)
	}
	if len(avg) > 0 {
		f.add(append([]any{"average"}, avg...)...)
	}
	return f
}

// perOp builds a per-operation panel over the suite aggregate: one row per
// op class that ran, in display order.
func (s *Suite) perOp(title string, columns []Column, vals func(cs *profiler.ClassStats) []any) Figure {
	p := Figure{Title: title, Columns: columns}
	agg := s.classTotals()
	for _, c := range displayClasses {
		if cs := &agg[c]; cs.Kernels > 0 {
			p.add(append([]any{c}, vals(cs)...)...)
		}
	}
	return p
}

// classTotals merges per-class stats across the suite's runs.
func (s *Suite) classTotals() (agg [gpu.NumOpClasses]profiler.ClassStats) {
	for _, r := range s.Results {
		for c, cs := range r.PerClass {
			agg[c].Add(cs)
		}
	}
	return agg
}

// stallProfile is the class's normalized stall breakdown.
func stallProfile(cs *profiler.ClassStats) gpu.StallBreakdown {
	st := cs.StallsWeighted
	st.Normalize()
	return st
}

// fig2 is the execution-time breakdown by operation class.
func (s *Suite) fig2() Figure {
	var heads []string
	for _, c := range displayClasses {
		heads = append(heads, c.String())
	}
	f := s.perWorkload(Figure{ID: "fig2", Title: "Figure 2: execution time breakdown by operation (%)",
		Caption: "Share of kernel execution time per operation class.",
		Columns: cols("workload", 11, "%.1f", true, heads...)},
		func(r *core.RunResult) (row []any) {
			for _, c := range displayClasses {
				row = append(row, 100*r.Report.TimeShare[c])
			}
			return row
		})
	a := s.Averages()
	f.Notes = []string{fmt.Sprintf("suite: GEMM+SpMM share %.1f%%, graph-op (scatter/gather/reduce/index/sort) share %.1f%%",
		100*a.GEMMSpMMShare, 100*a.GraphOpShare)}
	return f
}

// fig3 is the dynamic instruction mix.
func (s *Suite) fig3() Figure {
	a := s.Averages()
	return s.perWorkload(Figure{ID: "fig3", Title: "Figure 3: dynamic instruction mix (%)",
		Caption: "int32 vs fp32 instruction shares; GW is the fp-dominated exception.",
		Columns: cols("workload", 8, "%.1f", true, "int32", "fp32", "other")},
		func(r *core.RunResult) []any {
			return []any{100 * r.Report.IntShare, 100 * r.Report.FpShare, 100 * r.Report.OtherShare}
		}, 100*a.IntShare, 100*a.FpShare, 100*(1-a.IntShare-a.FpShare))
}

// fig4 is achieved GFLOPS/GIOPS and IPC, per workload and per operation.
func (s *Suite) fig4() Figure {
	a := s.Averages()
	rates := cols("workload", 10, "%.0f", false, "GFLOPS", "GIOPS")
	f := s.perWorkload(Figure{ID: "fig4", Title: "Figure 4: achieved GFLOPS / GIOPS (and IPC)",
		Caption: "All workloads run far below the device's fp32 peak.",
		Columns: append(rates, Column{"IPC", 8, "%.2f", false})},
		func(r *core.RunResult) []any { return []any{r.Report.GFLOPS, r.Report.GIOPS, r.Report.IPC} },
		a.GFLOPS, a.GIOPS, a.IPC)
	f.Panels = []Figure{s.perOp("per-operation achieved rates (suite aggregate):",
		cols("op", 10, "%.0f", false, "GFLOPS", "GIOPS"),
		func(cs *profiler.ClassStats) []any { return []any{cs.GFLOPS(), cs.GIOPS()} })}
	return f
}

// fig5 is the warp-stall breakdown per workload plus the per-op-class
// aggregate (the paper's Figure 5 second panel).
func (s *Suite) fig5() Figure {
	st := s.Averages().Stalls
	f := s.perWorkload(Figure{ID: "fig5", Title: "Figure 5: stall breakdown (%)",
		Caption: "Memory dependency leads; execution dependency and instruction fetch are both significant.",
		Columns: cols("workload", 8, "%.1f", true, "memdep", "execdep", "ifetch", "sync", "other")},
		func(r *core.RunResult) []any {
			st := r.Report.Stalls
			return []any{100 * st.MemoryDep, 100 * st.ExecDep, 100 * st.InstrFetch, 100 * st.Sync, 100 * st.Other}
		}, 100*st.MemoryDep, 100*st.ExecDep, 100*st.InstrFetch, 100*st.Sync, 100*st.Other)
	f.Panels = []Figure{s.perOp("per-operation stall profile (suite aggregate):",
		cols("op", 8, "%.1f", true, "memdep", "execdep", "ifetch"),
		func(cs *profiler.ClassStats) []any {
			st := stallProfile(cs)
			return []any{100 * st.MemoryDep, 100 * st.ExecDep, 100 * st.InstrFetch}
		})}
	return f
}

// fig6 is cache hit rates and memory divergence.
func (s *Suite) fig6() Figure {
	a := s.Averages()
	columns := func(first string) []Column {
		return append(cols(first, 8, "%.1f", true, "L1", "L2"), Column{"divergent", 10, "%.1f", true})
	}
	f := s.perWorkload(Figure{ID: "fig6", Title: "Figure 6: cache hit rates and divergent loads (%)",
		Caption: "L1 hit rates are very low; the larger shared L2 fares much better.",
		Columns: columns("workload")},
		func(r *core.RunResult) []any {
			return []any{100 * r.Report.L1HitRate, 100 * r.Report.L2HitRate, 100 * r.Report.DivergenceRate}
		}, 100*a.L1HitRate, 100*a.L2HitRate, 100*a.DivergenceRate)
	f.Panels = []Figure{s.perOp("per-operation locality (suite aggregate):", columns("op"),
		func(cs *profiler.ClassStats) []any {
			return []any{100 * cs.L1HitRate(), 100 * cs.L2HitRate(), 100 * cs.DivergenceRate()}
		})}
	return f
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

// fig7 is the average H2D transfer sparsity per workload, with the
// compression-estimate extension.
func (s *Suite) fig7() Figure {
	return s.perWorkload(Figure{ID: "fig7", Title: "Figure 7: average sparsity of CPU->GPU transfers (%)",
		Caption: "Zero fraction of host-to-device training transfers, with a zero-RLE compression estimate.",
		Columns: append(cols("workload", 10, "%.1f", true, "sparsity"),
			Column{"H2D MB", 12, "%.2f", false}, Column{"est.compr", 12, "%.2fx", false})},
		func(r *core.RunResult) []any {
			rep := r.Report
			return []any{100 * rep.AvgSparsity, float64(rep.H2DBytes) / (1 << 20), CompressionRatio(rep.AvgSparsity)}
		}, 100*s.Averages().AvgSparsity)
}

// fig8Iterations caps the printed length of a Figure 8 series.
const fig8Iterations = 24

// fig8 is the sparsity-vs-iteration series of every workload that ran more
// than one iteration: headless rows of up to fig8Iterations values.
func (s *Suite) fig8() Figure {
	f := Figure{ID: "fig8", Title: "Figure 8: transfer sparsity over training iterations (%)",
		Caption: "Per-iteration zero fraction of host-to-device transfers; the series repeats every epoch.",
		Columns: []Column{{"", -13, "%-12s:", false}}}
	for i := 0; i < fig8Iterations; i++ {
		f.Columns = append(f.Columns, Column{"", 5, "%.1f", false})
	}
	f.Columns = append(f.Columns, Column{"", 3, "%s", false})
	for _, r := range s.Results {
		if len(r.SparsityTimeline) < 2 {
			continue
		}
		row := []any{r.Label()}
		for _, v := range r.SparsityTimeline[:min(len(r.SparsityTimeline), fig8Iterations)] {
			row = append(row, 100*v)
		}
		if len(r.SparsityTimeline) > fig8Iterations {
			row = append(row, "...")
		}
		f.add(row...)
	}
	return f
}

// deviceModel is the short model name of the device the suite ran on
// ("V100" for "Tesla V100-SXM2-16GB").
func (s *Suite) deviceModel() string {
	model, _, _ := strings.Cut(strings.TrimPrefix(s.Device.Name, "Tesla "), "-")
	return model
}

// figM is the per-workload device-memory characterization (our "Fig. M",
// extending the paper with the footprint dimension): peak-live and reserved
// bytes from each run's caching allocator, the allocation rate, the
// free-list reuse rate, and the fragmentation ratio. It reads the allocator
// snapshots the suite's runs already carry — no extra runs.
func (s *Suite) figM() Figure {
	return s.perWorkload(Figure{ID: "figm",
		Title:   fmt.Sprintf("Figure M: per-workload device-memory footprint (%s caching allocator)", s.deviceModel()),
		Caption: "Peak-live and reserved device memory per workload from the simulated caching allocator, with free-list reuse and fragmentation rates.",
		Columns: append(cols("workload", 12, "%s", false, "peak live", "reserved"), Column{"allocs", 10, "%d", false},
			Column{"reuse", 8, "%.1f%%", true}, Column{"frag", 8, "%.1f%%", true}, Column{"OOMs", 6, "%d", false})},
		func(r *core.RunResult) []any {
			m := r.Mem
			return []any{vmem.FormatBytes(m.PeakLive), vmem.FormatBytes(m.PeakReserved),
				m.Allocs, 100 * m.ReuseRate(), 100 * m.PeakFragmentation(), m.OOMs}
		})
}

// ScalingResult is one workload's Figure 9 series.
type ScalingResult struct {
	Workload string
	Results  []ddp.ClusterResult
}

// fig9Rows lists the multi-GPU study's workloads — everything except ARGA
// (excluded in the paper because it trains full-graph) — each with its study
// configuration: large global batches over few iterations, so per-iteration
// compute dominates launch overhead as it does at the paper's production
// scale. Small-batch configs would make every workload look launch-bound.
var fig9Rows = []struct {
	workload string
	config   any
}{
	{"PSAGE", models.PSAGEConfig{BatchSize: 64, Batches: 2}},
	{"STGCN", models.STGCNConfig{Channels: 32, BatchSize: 48, Batches: 1}},
	{"DGCN", models.DGCNConfig{BatchSize: 160, Layers: 7, Hidden: 128}},
	{"GW", models.GWConfig{BatchSize: 48, Dim: 192, MaxDecode: 16}},
	{"KGNNL", models.KGNNConfig{K: 2, BatchSize: 120, Hidden: 64}},
	{"KGNNH", models.KGNNConfig{K: 3, BatchSize: 120, Hidden: 48}},
	{"TLSTM", models.TLSTMConfig{BatchSize: 100}},
}

// Fig9 runs the DDP strong-scaling study on 1/2/4 GPUs with the executed
// replication engine: every world size really trains G replicas over
// sharded batches and really ring-allreduces their gradient buckets, so the
// reported timeline breaks communication into exposed and overlapped parts.
func Fig9(cfg core.RunConfig) ([]ScalingResult, error) {
	var out []ScalingResult
	for _, row := range fig9Rows {
		spec, err := core.Lookup(row.workload)
		if err != nil {
			return nil, err
		}
		// Every replica runs on slot 0's device model: the study scales the
		// paper's homogeneous node.
		factory := func(_, rank, world int) (w models.Workload, env *models.Env, err error) {
			env, err = cfg.Build(0, rank, world, func(env *models.Env) { w = spec.New(env, spec.Datasets[0], row.config) })
			return w, env, err
		}
		res, err := ddp.ExecutedStrongScaling(factory, []int{1, 2, 4})
		if err != nil {
			return nil, err
		}
		out = append(out, ScalingResult{Workload: row.workload, Results: res})
	}
	return out, nil
}

// Fig9Figure is the scaling study as a figure: the speedup table, and the
// per-workload compute/comm/overlap breakdown at the largest world size.
func Fig9Figure(results []ScalingResult) Figure {
	speedup := func(head string) Column { return Column{head, 8, "%.2f", false} }
	f := Figure{ID: "fig9", Title: "Figure 9: multi-GPU strong scaling (speedup vs 1 GPU)",
		Caption: "Executed DDP: replicas train sharded batches and ring-allreduce gradient buckets.",
		Columns: []Column{{"workload", -10, "%s", false}, speedup("1 GPU"), speedup("2 GPU"), speedup("4 GPU"), {"note", 0, "%s", false}}}
	ms := func(head string) Column { return Column{head, 9, "%.3f", false} }
	timeline := Figure{Title: "Executed-engine timeline at 4 GPUs (per epoch, ms)",
		Columns: []Column{{"workload", -10, "%s", false}, ms("compute"), ms("comm"), ms("exposed"), ms("hidden"), {"buckets", 8, "%d", false}},
		Notes:   []string{"(ARGA excluded: full-graph training does not shard, as in the paper)"}}
	for _, sr := range results {
		note := ""
		if len(sr.Results) > 1 && sr.Results[1].Replicated {
			note = "replicated (sampler not DDP-compatible)"
		}
		f.add(sr.Workload, sr.Results[0].Speedup, sr.Results[1].Speedup, sr.Results[2].Speedup, note)
		r := sr.Results[len(sr.Results)-1]
		timeline.add(sr.Workload, 1e3*r.ComputeSeconds, 1e3*r.CommSeconds,
			1e3*r.ExposedCommSeconds, 1e3*r.OverlappedCommSeconds, r.Buckets)
	}
	f.Panels = []Figure{timeline}
	return f
}

// StrongScalingFigure is an executed strong-scaling series for one workload
// (the `run -gpus N` view): per world size, the epoch timeline split into
// compute and exposed/hidden communication.
func StrongScalingFigure(workload string, results []ddp.ClusterResult) Figure {
	f := Figure{Title: workload + " executed DDP strong scaling (global batch fixed)",
		Columns: []Column{{Verb: "  %d GPU:"}, {Verb: "epoch %.3f ms"}, {Verb: "= compute %.3f"}, {Verb: "+ exposed comm %.3f"},
			{Verb: "(%.3f hidden,"}, {Verb: "%d buckets)"}, {Verb: " speedup %.2fx"}, {Verb: " [%s]"}}}
	for _, r := range results {
		row := []any{r.GPUs, 1e3 * r.TotalSeconds, 1e3 * r.ComputeSeconds, 1e3 * r.ExposedCommSeconds,
			1e3 * r.OverlappedCommSeconds, r.Buckets, r.Speedup}
		if r.Replicated {
			row = append(row, "replicated: sampler not DDP-compatible")
		}
		f.add(row...)
	}
	return f
}
