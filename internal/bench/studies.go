package bench

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"gnnmark/internal/core"
	"gnnmark/internal/gpu"
	"gnnmark/internal/graph"
	"gnnmark/internal/models"
	"gnnmark/internal/nn"
	"gnnmark/internal/profiler"
	"gnnmark/internal/vmem"
)

// Study is what a figure is built from: the run configuration every study
// reads and, for "sweep" alone, the swept key and its values.
type Study struct {
	core.RunConfig
	Sweep  string
	Values []int
}

// studies is the index of every figure by id, which is also the command that
// prints it, in the command table's order. DESIGN.md §4 is this table.
var studies = []struct {
	id    string
	build func(Study) (Figure, error)
}{
	{"table1", func(Study) (Figure, error) { return Table1(), nil }},
	{"fig2", figured(Characterize, (*Suite).fig2)},
	{"fig3", figured(Characterize, (*Suite).fig3)},
	{"fig4", figured(Characterize, (*Suite).fig4)},
	{"fig5", figured(Characterize, (*Suite).fig5)},
	{"fig6", figured(Characterize, (*Suite).fig6)},
	{"fig7", figured(Characterize, (*Suite).fig7)},
	{"fig8", figured(Characterize, (*Suite).fig8)},
	{"figm", figured(Characterize, (*Suite).figM)},
	{"fig9", figured(Fig9, Fig9Figure)},
	{"figp", figP},
	{"figpart", figured(FigPart, (*FigPartResult).Figure)},
	{"figf", figured(FigF, (*FigFResult).Figure)},
	{"infer", figured(contrast(core.Run, inferenceArms...), inferenceFigure)},
	{"dnn-contrast", dnnContrast},
	{"ablate-fp16", figured(contrast(core.RunSuite, arm{}, fp16Arm), fp16Figure)},
	{"ablate-l1bypass", figured(contrast(core.RunSuite, arm{}, l1BypassArm), l1BypassFigure)},
	{"gpucompare", figured(contrast(core.Run, gpuArms...), gpuCompareFigure)},
	{"roofline", rooflineFigure},
	{"kernels", kernelsFigure},
	{"sweep", sweepFigure},
	{"datasets", func(s Study) (Figure, error) { return datasetsFigure(s.Seed), nil }},
	{"params", paramsFigure},
}

// figured adapts a study with a typed result — one the tests, the claims or
// several figures read — to the index: run it, then build the figure from it.
func figured[T any](run func(core.RunConfig) (T, error), figure func(T) Figure) func(Study) (Figure, error) {
	return func(s Study) (Figure, error) {
		res, err := run(s.RunConfig)
		if err != nil {
			return Figure{}, err
		}
		return figure(res), nil
	}
}

// Figure builds the figure with the given id.
func (s Study) Figure(id string) (Figure, error) {
	var ids []string
	for _, st := range studies {
		if st.id == id {
			return st.build(s)
		}
		ids = append(ids, st.id)
	}
	return Figure{}, fmt.Errorf("bench: no figure %q (have %s)", id, strings.Join(ids, " "))
}

// arm is one variant of a run: what its row or column is called and the
// RunConfig field it changes.
type arm struct {
	name string
	set  func(*core.RunConfig)
}

// The arms of the variant studies. A nil set runs the configuration as given.
var (
	inferenceArms = []arm{
		{"train", func(c *core.RunConfig) { c.ForwardOnly = false }},
		{"infer", func(c *core.RunConfig) { c.ForwardOnly = true }},
	}
	fp16Arm     = arm{"fp16 (s)", func(c *core.RunConfig) { c.HalfPrecision = true }}
	l1BypassArm = arm{"bypassed", func(c *core.RunConfig) { c.BypassL1 = true }}
	gpuArms     = []arm{
		{"p100", func(c *core.RunConfig) { c.GPU = "p100" }},
		{"v100", func(c *core.RunConfig) { c.GPU = "v100" }},
		{"a100", func(c *core.RunConfig) { c.GPU = "a100" }},
	}
)

// contrast is the study that runs a configuration once per arm — the same run
// (core.Run: one workload; core.RunSuite: the default suite) with one
// RunConfig field changed — and returns the results in arm order.
func contrast[T any](run func(core.RunConfig) (T, error), arms ...arm) func(core.RunConfig) ([]T, error) {
	return func(cfg core.RunConfig) ([]T, error) {
		var out []T
		for _, a := range arms {
			c := cfg
			if a.set != nil {
				a.set(&c)
			}
			r, err := run(c)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
}

// ablation is the table both ablations are: per suite workload, the kernel
// seconds as configured (arms[0]) and under the variant (arms[1]), and
// compare's reading of the two.
func ablation(f Figure, arms [][]core.RunResult, compare func(base, varied float64) float64) Figure {
	for i, r := range arms[0] {
		base, varied := r.Report.KernelSeconds, arms[1][i].Report.KernelSeconds
		f.add(r.Label(), base, varied, compare(base, varied))
	}
	return f
}

// fp16Figure compares fp32 and fp16 storage per workload: the paper's
// half-precision future-work item.
func fp16Figure(arms [][]core.RunResult) Figure {
	return ablation(Figure{ID: "ablate-fp16", Title: "fp16 ablation: simulated kernel seconds per epoch (fp32 vs fp16)",
		Columns: append(cols("workload", 12, "%.5f", false, "fp32 (s)", fp16Arm.name), Column{"speedup", 8, "%.2fx", false})},
		arms, func(fp32, fp16 float64) float64 { return fp32 / fp16 })
}

// l1BypassFigure compares every workload with and without the L1 data cache:
// the paper's suggested mitigation for GNNs' very low L1 hit rates.
func l1BypassFigure(arms [][]core.RunResult) Figure {
	return ablation(Figure{ID: "ablate-l1bypass", Title: "L1-bypass ablation: simulated kernel seconds per run",
		Columns: append(cols("workload", 12, "%.5f", false, "with L1", l1BypassArm.name), Column{"delta", 10, "%+.1f%%", false})},
		arms, func(normal, bypassed float64) float64 { return 100 * (bypassed - normal) / normal })
}

// figP characterizes the suite with the asynchronous input pipeline forced
// on (depth 4 unless set; CompressH2D honored as given — encoded bytes are
// modeled either way, so the ratio column is always meaningful). One pipelined
// run carries both epoch times — the device's serialized clock is the
// synchronous baseline, the two-stream timeline the overlapped one — so the
// study is a single arm.
func figP(s Study) (Figure, error) {
	depth := s.PipelineDepth
	if depth <= 0 {
		depth = 4
	}
	arms, err := contrast(core.RunSuite, arm{set: func(c *core.RunConfig) { c.PipelineDepth = depth }})(s.RunConfig)
	if err != nil {
		return Figure{}, err
	}
	return figPTable(depth, s.CompressH2D, arms[0]), nil
}

// figPTable is the input-pipeline characterization (our "Fig. P", extending
// the paper's data-loading observations of §IV-B): synchronous vs overlapped
// epoch time, the copy time hidden behind compute, and the raw-vs-encoded
// H2D payload of the sparsity codec.
func figPTable(depth int, compressed bool, runs []core.RunResult) Figure {
	mode := "raw wire bytes"
	if compressed {
		mode = "sparsity-encoded wire bytes"
	}
	f := Figure{ID: "figp", Title: fmt.Sprintf("Figure P: asynchronous input pipeline, depth %d, %s", depth, mode),
		Columns: append(cols("workload", 11, "%.3fms", false, "sync/ep", "piped/ep"), Column{"speedup", 8, "%.3fx", false},
			Column{"overlap", 8, "%.1f%%", false}, Column{"H2D raw", 10, "%s", false}, Column{"encoded", 10, "%s", false}, Column{"ratio", 6, "%.2fx", false})}
	for _, r := range runs {
		var sync, pipe, copyBusy, exposed float64
		var raw, enc uint64
		for _, pe := range r.Pipe {
			sync += pe.SyncSeconds
			pipe += pe.PipeSeconds
			copyBusy += pe.CopyBusy
			exposed += pe.ExposedCopySeconds()
			raw += pe.RawBytes
			enc += pe.EncodedBytes
		}
		eps := float64(len(r.Pipe))
		if eps == 0 {
			continue
		}
		overlap, speedup, ratio := 0.0, 1.0, 1.0
		if copyBusy > 0 {
			overlap = 100 * (1 - exposed/copyBusy)
		}
		if pipe > 0 {
			speedup = sync / pipe
		}
		if enc > 0 {
			ratio = float64(raw) / float64(enc)
		}
		f.add(r.Label(), 1e3*sync/eps, 1e3*pipe/eps, speedup, overlap,
			vmem.FormatBytes(int64(raw)), vmem.FormatBytes(int64(enc)), ratio)
	}
	return f
}

// inferenceFigure is one workload in training and in forward-only
// (inference) mode: the paper's future-work inference study, and its
// observation that training's op mix differs from inference's (where GEMM
// dominates more).
func inferenceFigure(rs []core.RunResult) Figure {
	train, infer := rs[0].Report, rs[1].Report
	f := Figure{ID: "infer", Title: rs[0].Workload + ": training vs inference (forward-only) op mix",
		Columns: []Column{{"", -24, "%s", false}, {inferenceArms[0].name, 10, "%.1f%%", false}, {inferenceArms[1].name, 10, "%.1f%%", false}}}
	f.add("GEMM+SpMM share", 100*train.GEMMSpMMTimeShare(), 100*infer.GEMMSpMMTimeShare())
	f.add("element-wise share", 100*train.TimeShare[gpu.OpElementWise], 100*infer.TimeShare[gpu.OpElementWise])
	f.add("kernels", num("%.0f", float64(train.Kernels)), num("%.0f", float64(infer.Kernels)))
	// This row has always printed one column short of its heads.
	f.add("kernel ms", Cell{Text: fmt.Sprintf("%9.3f %9.3f", 1e3*train.KernelSeconds, 1e3*infer.KernelSeconds)})
	return f
}

// gpuCompareFigure is one workload across GPU generations: a sensitivity
// study of the paper's V100 findings.
func gpuCompareFigure(rs []core.RunResult) Figure {
	f := Figure{ID: "gpucompare", Title: rs[0].Workload + " across GPU generations",
		Columns: []Column{{"gpu", -8, "%s", false}, {"kernel ms", 12, "%.4f", false}, {"GFLOPS", 10, "%.0f", false},
			{"L1", 8, "%.1f%%", false}, {"L2", 8, "%.1f%%", false}}}
	for i, a := range gpuArms {
		r := rs[i].Report
		f.add(a.name, 1e3*r.KernelSeconds, r.GFLOPS, 100*r.L1HitRate, 100*r.L2HitRate)
	}
	return f
}

// DNNBaseline trains the conventional-CNN comparator under the same
// profiler and returns its report: the DNN side of the paper's "GNN
// training differs greatly from a typical DNN" contrast. The DNN is the one
// model outside the registry, so this is the one study that constructs its
// model itself and cannot be an arm of contrast.
func DNNBaseline(cfg core.RunConfig) (profiler.Report, error) {
	p, err := profile(cfg, cmp.Or(cfg.Epochs, 2), func(env *models.Env) models.Workload { return models.NewDNN(env, models.DNNConfig{}) })
	return p.Report, err
}

// dnnContrast is the GNN-suite-vs-DNN operation-mix comparison.
func dnnContrast(s Study) (Figure, error) {
	suite, err := Characterize(s.RunConfig)
	if err != nil {
		return Figure{}, err
	}
	dnn, err := DNNBaseline(s.RunConfig)
	return dnnContrastFigure(suite, dnn), err
}

func dnnContrastFigure(suite *Suite, dnn profiler.Report) Figure {
	a := suite.Averages()
	f := Figure{ID: "dnn-contrast", Title: "GNN suite vs conventional DNN (CNN baseline):",
		Columns: []Column{{"", -28, "%s", false}, {"GNN suite", 12, "%.1f%%", false}, {"DNN", 12, "%.1f%%", false}},
		Notes: []string{"", "GNN training spreads time across aggregation/indexing kernels a",
			"GEMM-only accelerator would not touch (paper Section V-A takeaway)."}}
	f.add("GEMM+SpMM+Conv time share", 100*(a.GEMMSpMMShare+convShare(suite)),
		100*(dnn.TimeShare[gpu.OpGEMM]+dnn.TimeShare[gpu.OpSpMM]+dnn.TimeShare[gpu.OpConv]))
	f.add("graph-op time share", 100*a.GraphOpShare, 100*dnn.GraphOpTimeShare())
	f.add("int32 instruction share", 100*a.IntShare, 100*dnn.IntShare)
	return f
}

func convShare(s *Suite) float64 {
	var sum float64
	for _, r := range s.Results {
		sum += r.Report.TimeShare[gpu.OpConv]
	}
	return sum / float64(len(s.Results))
}

// kernelsFigure is where one training epoch's simulated time goes, by kernel
// name — the view the kernel recipes were calibrated against the paper's
// figures with, kept for model debugging.
func kernelsFigure(s Study) (Figure, error) {
	rep, err := core.NewReplica(s.RunConfig, 0, 0, 1)
	if err != nil {
		return Figure{}, err
	}
	defer rep.Env.Close()
	// Subscribing after construction leaves its kernels out: the breakdown
	// is one training epoch.
	times := map[string]float64{}
	counts := map[string]int{}
	var tot float64
	rep.Dev.Subscribe(func(ks gpu.KernelStats) {
		k := fmt.Sprintf("%-12s %s", ks.Class, ks.Name)
		times[k] += ks.Seconds
		counts[k]++
		tot += ks.Seconds
	})
	if _, err := rep.Epoch(); err != nil {
		return Figure{}, err
	}
	names := make([]string, 0, len(times))
	for k := range times {
		names = append(names, k)
	}
	// Largest first, ties by name: map order must not reach the output.
	sort.Slice(names, func(i, j int) bool {
		if ti, tj := times[names[i]], times[names[j]]; ti != tj {
			return ti > tj
		}
		return names[i] < names[j]
	})
	f := Figure{ID: "kernels", Columns: []Column{{"", 8, "%.2f%%", false}, {"", 11, "%.1fus", false}, {"", -7, "n=%d", false}, {"", 0, "%s", false}}}
	for _, k := range names {
		f.add(100*times[k]/tot, 1e6*times[k], counts[k], k)
	}
	return f, nil
}

// TTTFigure is a time-to-train result: the MLPerf-style metric the paper
// planned to adopt.
func TTTFigure(res core.TTTResult) Figure {
	status := "converged"
	if !res.Converged {
		status = "cutoff"
	}
	return Figure{ID: "ttt",
		Title: fmt.Sprintf("%s time-to-train(loss<=%.3f): %d epochs, %.3f ms simulated GPU time (%s)",
			res.Workload, res.TargetLoss, res.Epochs, 1e3*res.SimSeconds, status),
		Notes: []string{fmt.Sprintf("loss curve: %.4v", res.LossCurve)}}
}

// datasetsFigure is every synthetic dataset's structural statistics: size,
// degree shape, feature sparsity.
func datasetsFigure(seed int64) Figure {
	f := Figure{ID: "datasets", Title: "dataset inventory (synthetic stand-ins)",
		Columns: []Column{{"dataset", -12, "%s", false}, {"nodes", 8, "%d", false}, {"edges", 9, "%d", false}, {"feats", 7, "%d", false},
			{"sparsity", 9, "%.1f%%", false}, {"maxdeg", 8, "%d", false}, {"gini", 7, "%.2f", false}}}
	for _, d := range core.DatasetStats(seed) {
		if d.Graph == nil {
			f.add(d.Name, d.Items, Cell{Text: d.Of})
			continue
		}
		st := graph.Degrees(d.Graph)
		f.add(d.Name, d.Graph.Rows, d.Graph.NNZ(), d.Feats, 100*d.Sparsity, st.Max, st.Gini)
	}
	return f
}

// paramsFigure is per-workload trainable parameter counts and per-epoch
// iteration counts: the Table I companion.
func paramsFigure(s Study) (Figure, error) {
	f := Figure{ID: "params", Title: "model inventory",
		Columns: []Column{{"workload", -12, "%s", false}, {"params", 10, "%d", false}, {"iters", 8, "%d", false}, {"grad bytes", 12, "%d", false}}}
	for _, spec := range core.Registry() {
		rep, err := core.NewReplica(core.RunConfig{Workload: spec.Key, Seed: s.Seed}, 0, 0, 1)
		if err != nil {
			return Figure{}, err
		}
		ps := rep.W.Params()
		f.add(spec.Key, nn.NumParams(ps), rep.W.IterationsPerEpoch(), nn.ParamBytes(ps))
		rep.Env.Close()
	}
	return f, nil
}
