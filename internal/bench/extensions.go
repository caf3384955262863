package bench

import (
	"cmp"
	"fmt"
	"strings"

	"gnnmark/internal/core"
	"gnnmark/internal/ddp"
	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
	"gnnmark/internal/profiler"
)

// DNNBaseline trains the conventional-CNN comparator under the same
// profiler and returns its report: the DNN side of the paper's "GNN
// training differs greatly from a typical DNN" contrast.
func DNNBaseline(cfg core.RunConfig) (profiler.Report, error) {
	var m *models.DNN
	env, err := cfg.Build(0, 0, 1, func(env *models.Env) { m = models.NewDNN(env, models.DNNConfig{}) })
	if err != nil {
		return profiler.Report{}, err
	}
	defer env.Close()
	prof := profiler.Attach(env.E.Device())
	env.OnIteration = prof.NextIteration
	for e := 0; e < cmp.Or(cfg.Epochs, 2); e++ {
		if _, err := env.Epoch(m); err != nil {
			return profiler.Report{}, err
		}
	}
	return prof.Snapshot(), nil
}

// FormatContrast renders the GNN-suite-vs-DNN operation-mix comparison.
func FormatContrast(suite *Suite, dnn profiler.Report) string {
	a := suite.Averages()
	var b strings.Builder
	b.WriteString("GNN suite vs conventional DNN (CNN baseline):\n")
	fmt.Fprintf(&b, "%-28s %12s %12s\n", "", "GNN suite", "DNN")
	fmt.Fprintf(&b, "%-28s %11.1f%% %11.1f%%\n", "GEMM+SpMM+Conv time share",
		100*(a.GEMMSpMMShare+convShare(suite)),
		100*(dnn.TimeShare[gpu.OpGEMM]+dnn.TimeShare[gpu.OpSpMM]+dnn.TimeShare[gpu.OpConv]))
	fmt.Fprintf(&b, "%-28s %11.1f%% %11.1f%%\n", "graph-op time share",
		100*a.GraphOpShare, 100*dnn.GraphOpTimeShare())
	fmt.Fprintf(&b, "%-28s %11.1f%% %11.1f%%\n", "int32 instruction share",
		100*a.IntShare, 100*dnn.IntShare)
	b.WriteString("\nGNN training spreads time across aggregation/indexing kernels a\n")
	b.WriteString("GEMM-only accelerator would not touch (paper Section V-A takeaway).\n")
	return b.String()
}

func convShare(s *Suite) float64 {
	var sum float64
	for _, r := range s.Results {
		sum += r.Report.TimeShare[gpu.OpConv]
	}
	return sum / float64(len(s.Results))
}

// InferenceContrast characterizes one workload in training and in
// forward-only (inference) mode and returns both reports: the paper's
// future-work inference study, and its observation that training's op mix
// differs from inference's (where GEMM dominates more).
func InferenceContrast(cfg core.RunConfig) (train, infer profiler.Report, err error) {
	t := cfg
	t.ForwardOnly = false
	rt, err := core.Run(t)
	if err != nil {
		return train, infer, err
	}
	i := cfg
	i.ForwardOnly = true
	ri, err := core.Run(i)
	if err != nil {
		return train, infer, err
	}
	return rt.Report, ri.Report, nil
}

// FormatInference renders the training-vs-inference comparison for one
// workload.
func FormatInference(workload string, train, infer profiler.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: training vs inference (forward-only) op mix\n", workload)
	fmt.Fprintf(&b, "%-24s %10s %10s\n", "", "train", "infer")
	fmt.Fprintf(&b, "%-24s %9.1f%% %9.1f%%\n", "GEMM+SpMM share",
		100*train.GEMMSpMMTimeShare(), 100*infer.GEMMSpMMTimeShare())
	fmt.Fprintf(&b, "%-24s %9.1f%% %9.1f%%\n", "element-wise share",
		100*train.TimeShare[gpu.OpElementWise], 100*infer.TimeShare[gpu.OpElementWise])
	fmt.Fprintf(&b, "%-24s %10d %10d\n", "kernels", train.Kernels, infer.Kernels)
	fmt.Fprintf(&b, "%-24s %9.3f %9.3f\n", "kernel ms", 1e3*train.KernelSeconds, 1e3*infer.KernelSeconds)
	return b.String()
}

// L1BypassAblation runs a workload with and without the L1 data cache: the
// paper's suggested mitigation for GNNs' very low L1 hit rates. Returns
// (normal, bypassed) kernel seconds.
func L1BypassAblation(cfg core.RunConfig) (normal, bypassed float64, err error) {
	n := cfg
	n.BypassL1 = false
	rn, err := core.Run(n)
	if err != nil {
		return 0, 0, err
	}
	bp := cfg
	bp.BypassL1 = true
	rb, err := core.Run(bp)
	if err != nil {
		return 0, 0, err
	}
	return rn.Report.KernelSeconds, rb.Report.KernelSeconds, nil
}

// FormatStrongScaling renders an executed strong-scaling series for one
// workload (the `run -gpus N` view): per world size, the epoch timeline
// split into compute and exposed/hidden communication.
func FormatStrongScaling(workload string, results []ddp.ClusterResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s executed DDP strong scaling (global batch fixed)\n", workload)
	for _, r := range results {
		note := ""
		if r.Replicated {
			note = "  [replicated: sampler not DDP-compatible]"
		}
		fmt.Fprintf(&b, "  %d GPU: epoch %.3f ms = compute %.3f + exposed comm %.3f (%.3f hidden, %d buckets)  speedup %.2fx%s\n",
			r.GPUs, 1e3*r.TotalSeconds, 1e3*r.ComputeSeconds,
			1e3*r.ExposedCommSeconds, 1e3*r.OverlappedCommSeconds, r.Buckets, r.Speedup, note)
	}
	return b.String()
}

// GPUCompare characterizes one workload across GPU generations and returns
// the per-preset reports in (p100, v100, a100) order: a sensitivity study
// of the paper's V100 findings.
func GPUCompare(cfg core.RunConfig) (map[string]profiler.Report, error) {
	out := map[string]profiler.Report{}
	for _, g := range []string{"p100", "v100", "a100"} {
		c := cfg
		c.GPU = g
		r, err := core.Run(c)
		if err != nil {
			return nil, err
		}
		out[g] = r.Report
	}
	return out, nil
}

// FormatGPUCompare renders the cross-generation comparison.
func FormatGPUCompare(workload string, reports map[string]profiler.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s across GPU generations\n", workload)
	fmt.Fprintf(&b, "%-8s %12s %10s %8s %8s\n", "gpu", "kernel ms", "GFLOPS", "L1", "L2")
	for _, g := range []string{"p100", "v100", "a100"} {
		r := reports[g]
		fmt.Fprintf(&b, "%-8s %12.4f %10.0f %7.1f%% %7.1f%%\n",
			g, 1e3*r.KernelSeconds, r.GFLOPS, 100*r.L1HitRate, 100*r.L2HitRate)
	}
	return b.String()
}
