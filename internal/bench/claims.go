package bench

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"gnnmark/internal/ddp"
	"gnnmark/internal/gpu"
	"gnnmark/internal/profiler"
)

// Evidence is what the paper's claims are judged on: the characterized
// suite (Figures 2-8) and the executed scaling study (Figure 9).
type Evidence struct {
	Suite   *Suite
	Scaling []ScalingResult
}

// Claim is one row of the reproduction record: a claim the paper makes
// about a figure, the value the paper reports, and how it is measured and
// judged here. The bounds are looser than the paper's point estimates — the
// substrate is a model, not a V100 — but each pins the qualitative shape a
// regression would break.
type Claim struct {
	Figure  string // figure id, as in Study.Figure ("fig9" for the scaling study)
	Text    string // the claim, in the paper's terms
	Paper   string // the paper's value
	Verdict string // the verdict while Check passes
	Note    string // footnote mark keyed to EXPERIMENTS.md's prose (¹ ... ⁶)
	// Check measures the claim and returns the measured cell; an error
	// means the shape the verdict asserts no longer holds.
	Check func(e *Evidence) (measured string, err error)
}

// ClaimTable renders the figure's rows of Claims against ev as the markdown
// table EXPERIMENTS.md carries between its claims markers and `gnnmark all`
// prints under the figure ("" when the figure has no claims), and returns
// the failed checks, each naming its claim.
func ClaimTable(figure string, ev *Evidence) (string, error) {
	var b strings.Builder
	var failed []error
	for _, c := range Claims {
		if c.Figure != figure {
			continue
		}
		if b.Len() == 0 {
			b.WriteString("| Claim (paper) | Paper value | Measured | Verdict |\n|---|---|---|---|\n")
		}
		measured, err := c.Check(ev)
		verdict := c.Verdict + c.Note
		if err != nil {
			verdict = "FAILED: " + strings.ReplaceAll(err.Error(), "\n", "; ")
			failed = append(failed, fmt.Errorf("claim %s %q: measured %s: %w", figure, c.Text, measured, err))
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", c.Text, c.Paper, measured, verdict)
	}
	return b.String(), errors.Join(failed...)
}

// need is the error a broken shape reports; callers add what was measured.
func need(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// quantity is one number of a measured cell: its label there, how it is read
// off the evidence, the verb it prints with ("" prints a fraction as a
// percentage) and the closed range it must stay in for the verdict to stand.
type quantity struct {
	label  string
	read   func(*Evidence) float64
	verb   string
	lo, hi float64
}

// q is a quantity printed as a percentage.
func q(label string, read func(*Evidence) float64, lo, hi float64) quantity {
	return quantity{label, read, "", lo, hi}
}

var inf = math.Inf(1)

// within is the Check of a claim that is a list of bounded quantities: the
// measured cell lists them, and one outside its range breaks the claim.
func within(qs ...quantity) func(*Evidence) (string, error) {
	return func(e *Evidence) (string, error) {
		var cells []string
		var errs []error
		for _, qu := range qs {
			text := pct
			if qu.verb != "" {
				text = func(v float64) string { return fmt.Sprintf(qu.verb, v) }
			}
			v := qu.read(e)
			cells = append(cells, strings.TrimSpace(qu.label+" "+text(v)))
			errs = append(errs, need(v >= qu.lo && v <= qu.hi, "%s %s outside [%s, %s]", qu.label, text(v), text(qu.lo), text(qu.hi)))
		}
		return strings.Join(cells, " / "), errors.Join(errs...)
	}
}

// The readers quantities are built from: a suite mean, one run's report, one
// run's time share of an op class, an op class over the suite aggregate, a
// workload's 4-GPU speedup.
func mean(f func(Averages) float64) func(*Evidence) float64 {
	return func(e *Evidence) float64 { return f(e.Suite.Averages()) }
}

func of(label string, f func(*profiler.Report) float64) func(*Evidence) float64 {
	return func(e *Evidence) float64 { return f(&e.Suite.Find(label).Report) }
}

func share(label string, c gpu.OpClass) func(*Evidence) float64 {
	return of(label, func(r *profiler.Report) float64 { return r.TimeShare[c] })
}

func perOp(c gpu.OpClass, f func(*profiler.ClassStats) float64) func(*Evidence) float64 {
	return func(e *Evidence) float64 {
		agg := e.Suite.classTotals()
		return f(&agg[c])
	}
}

func speedup4(workload string) func(*Evidence) float64 {
	return func(e *Evidence) float64 { return e.at(workload)[2].Speedup }
}

func memdep(cs *profiler.ClassStats) float64 { return stallProfile(cs).MemoryDep }
func ifetch(cs *profiler.ClassStats) float64 { return stallProfile(cs).InstrFetch }
func sparsity(r *profiler.Report) float64    { return r.AvgSparsity }
func gflops(r *profiler.Report) float64      { return r.GFLOPS }

// at returns the workload's scaling series (1, 2, 4 GPUs).
func (e *Evidence) at(workload string) []ddp.ClusterResult {
	for _, sr := range e.Scaling {
		if sr.Workload == workload {
			return sr.Results
		}
	}
	return make([]ddp.ClusterResult, 3)
}

// extreme returns the label of the run with the largest sign*metric.
func (e *Evidence) extreme(sign float64, metric func(*profiler.Report) float64) string {
	best, label := math.Inf(-1), ""
	for i := range e.Suite.Results {
		if v := sign * metric(&e.Suite.Results[i].Report); v > best {
			best, label = v, e.Suite.Results[i].Label()
		}
	}
	return label
}

// Claims is the reproduction record: every claim of the paper's evaluation
// this repository judges, in EXPERIMENTS.md order.
var Claims = []Claim{
	{"fig2", "GEMM+SpMM share across the suite far below DNN levels", "~25%", "reproduced", "",
		within(q("", mean(func(a Averages) float64 { return a.GEMMSpMMShare }), 0, 0.40))},
	{"fig2", "sort/reduction/index/scatter-gather aggregate significant", "20.8%", "reproduced", "",
		within(q("", mean(func(a Averages) float64 { return a.GraphOpShare }), 0.05, 1))},
	{"fig2", "STGCN dominated by 2-D convolution", "~60%", "shape holds, magnitude lower", "¹",
		within(q("conv", share("STGCN", gpu.OpConv), 0.25, 1), q("element-wise", share("STGCN", gpu.OpElementWise), 0, 1),
			q("largest conv share of any other workload", func(e *Evidence) (rival float64) {
				for _, r := range e.Suite.Results {
					if r.Workload != "STGCN" {
						rival = max(rival, r.Report.TimeShare[gpu.OpConv])
					}
				}
				return rival
			}, 0, 0.125))},
	{"fig2", "DGCN element-wise heavy", "31%", "reproduced (overshoots)", "",
		within(q("", share("DGCN", gpu.OpElementWise), 0.30, 1))},
	{"fig2", "PSAGE/MVL sorting share", "20.7%", "reproduced", "",
		within(q("", share("PSAGE(MVL)", gpu.OpSort), 0.10, 1))},
	{"fig2", "PSAGE/MVL reductions", "7.0%", "direction ok, small", "",
		within(q("", share("PSAGE(MVL)", gpu.OpReduction), 0.001, 1))},
	{"fig2", "PSAGE element-wise grows on NWP (10× features)", "36% → 78%", "direction holds, weaker", "²",
		func(e *Evidence) (string, error) {
			ewM, ewN := share("PSAGE(MVL)", gpu.OpElementWise)(e), share("PSAGE(NWP)", gpu.OpElementWise)(e)
			sortM, sortN := share("PSAGE(MVL)", gpu.OpSort)(e), share("PSAGE(NWP)", gpu.OpSort)(e)
			return fmt.Sprintf("%s → %s (sort falls %s → %s)", pct(ewM), pct(ewN), pct(sortM), pct(sortN)),
				need(ewN > ewM && sortM > sortN, "NWP must raise the element-wise share and lower the sort share")
		}},
	{"fig2", "ARGA reduction-heavy decoder", "23% reductions", "partial (decoder dominated by its GEMM at our scale)", "²",
		within(q("reductions", share("ARGA(cora)", gpu.OpReduction), 0, 1), q("GEMM", share("ARGA(cora)", gpu.OpGEMM), 0, 1))},

	{"fig3", "integer work is a major component", "64% int32 avg", "direction holds, magnitude lower", "³",
		within(q("int32 avg", mean(func(a Averages) float64 { return a.IntShare }), 0.20, 1))},
	{"fig3", "fp32 share", "28.7%", "magnitude higher", "³",
		within(q("", mean(func(a Averages) float64 { return a.FpShare }), 0, 1))},
	{"fig3", "GW is the exception — most fp-dominated", "int < fp only for GW", "reproduced", "",
		func(e *Evidence) (string, error) {
			gw := e.Suite.Find("GW").Report
			return fmt.Sprintf("GW fp %s (suite max: %s); GW int %s (suite min: %s)", pct(gw.FpShare),
					e.extreme(1, func(r *profiler.Report) float64 { return r.FpShare }), pct(gw.IntShare),
					e.extreme(-1, func(r *profiler.Report) float64 { return r.IntShare })),
				need(gw.FpShare > gw.IntShare, "GW must be fp-dominated")
		}},
	{"fig3", "graph-op-heavy workloads most integer-heavy", "—", "reproduced", "",
		func(e *Evidence) (string, error) {
			avg := e.Suite.Averages().IntShare
			tlstm, mvl := e.Suite.Find("TLSTM").Report.IntShare, e.Suite.Find("PSAGE(MVL)").Report.IntShare
			return fmt.Sprintf("TLSTM %s, PSAGE/MVL %s (suite average %s)", pct(tlstm), pct(mvl), pct(avg)),
				need(tlstm >= avg && mvl >= avg, "both must sit at or above the suite average")
		}},

	{"fig4", "GW achieves the suite's highest fp32 rate", "1.99 TFLOPS", "reproduced", "",
		func(e *Evidence) (string, error) {
			gw, top := e.Suite.Find("GW").Report.GFLOPS, e.extreme(1, gflops)
			return fmt.Sprintf("%.2f TFLOPS (suite max: %s)", gw/1e3, top),
				need(top == "GW" && gw >= 1000, "GW must lead the suite at a TFLOPS-class rate")
		}},
	{"fig4", "TLSTM lowest despite batching", "74 GFLOPS", "reproduced", "",
		func(e *Evidence) (string, error) {
			tlstm, bottom := e.Suite.Find("TLSTM").Report.GFLOPS, e.extreme(-1, gflops)
			return fmt.Sprintf("%.0f GFLOPS (suite min: %s)", tlstm, bottom),
				need(bottom == "TLSTM" && tlstm <= 300, "TLSTM must trail the suite at a launch-bound rate (<= 300)")
		}},
	{"fig4", "all workloads far below the fp32 peak", "avg 214 GFLOPS of 14 TFLOPS", "shape holds", "⁴",
		within(quantity{"avg GFLOPS", mean(func(a Averages) float64 { return a.GFLOPS }), "%.0f", 0, inf},
			q("the fastest workload's share of peak", func(e *Evidence) float64 {
				return of(e.extreme(1, gflops), gflops)(e) / e.Suite.Device.PeakGFLOPS()
			}, 0, 0.60))},
	{"fig4", "low IPC reflecting memory-boundedness", "0.55 avg", "reproduced", "",
		within(quantity{"avg", mean(func(a Averages) float64 { return a.IPC }), "%.2f", 0, 1})},
	{"fig4", "GEMM rates well above scatter/gather/reduction rates", "mid-300s vs ~100", "reproduced", "",
		func(e *Evidence) (string, error) {
			rate := func(c gpu.OpClass) float64 { return perOp(c, (*profiler.ClassStats).GFLOPS)(e) }
			gemm, irregular := rate(gpu.OpGEMM), max(rate(gpu.OpScatter), rate(gpu.OpGather), rate(gpu.OpReduction))
			return fmt.Sprintf("per-op GFLOPS: GEMM %.0f vs scatter %.0f / gather %.0f / reduction %.0f", gemm,
					rate(gpu.OpScatter), rate(gpu.OpGather), rate(gpu.OpReduction)),
				need(irregular <= gemm/2, "an irregular class (%.0f GFLOPS) rivals GEMM", irregular)
		}},

	{"fig5", "memory dependency largest", "34.3%", "reproduced", "",
		func(e *Evidence) (string, error) {
			st := e.Suite.Averages().Stalls
			return pct(st.MemoryDep), need(st.MemoryDep > st.ExecDep && st.MemoryDep > st.InstrFetch, "memory dependency must lead: %+v", st)
		}},
	{"fig5", "execution dependency significant", "29.5%", "reproduced", "",
		within(q("", mean(func(a Averages) float64 { return a.Stalls.ExecDep }), 0.12, 1))},
	{"fig5", "instruction fetch significant (neglected in literature)", "21.6%", "reproduced (lower)", "",
		within(q("", mean(func(a Averages) float64 { return a.Stalls.InstrFetch }), 0.08, 1))},
	{"fig5", "scatter/gather/index stall on memory more than GEMM", "—", "reproduced", "",
		func(e *Evidence) (string, error) {
			md := func(c gpu.OpClass) float64 { return perOp(c, memdep)(e) }
			return fmt.Sprintf("memdep: scatter %s / gather %s / index %s vs GEMM %s", pct(md(gpu.OpScatter)), pct(md(gpu.OpGather)),
					pct(md(gpu.OpIndexSelect)), pct(md(gpu.OpGEMM))),
				need(min(md(gpu.OpScatter), md(gpu.OpGather), md(gpu.OpIndexSelect)) > md(gpu.OpGEMM), "each must exceed GEMM's")
		}},
	{"fig5", "GEMM/Conv fetch-stall heavy (large unrolled kernels)", "—", "reproduced", "",
		func(e *Evidence) (string, error) {
			gemm, conv, rest := perOp(gpu.OpGEMM, ifetch)(e), perOp(gpu.OpConv, ifetch)(e), 0.0
			for _, c := range displayClasses {
				if c != gpu.OpGEMM && c != gpu.OpConv {
					rest = max(rest, perOp(c, ifetch)(e))
				}
			}
			return fmt.Sprintf("ifetch: GEMM %s, Conv %s; every other class at most %s", pct(gemm), pct(conv), pct(rest)),
				need(rest < min(gemm, conv), "another class rivals the dense kernels")
		}},

	{"fig6", "extremely low L1 hit rates", "15% avg", "reproduced", "",
		within(q("avg", mean(func(a Averages) float64 { return a.L1HitRate }), 0, 0.30))},
	{"fig6", "L2 fares significantly better", "~70%", "direction holds, lower", "",
		within(q("avg", mean(func(a Averages) float64 { return a.L2HitRate }), 0, 1),
			quantity{"", mean(func(a Averages) float64 { return a.L2HitRate / a.L1HitRate }), "%.1f× L1", 1.5, inf})},
	{"fig6", "GEMM/SpMM poor L1 locality", "<10%", "partial (SpMM rows re-hit in our smaller graphs)", "",
		within(q("GEMM", perOp(gpu.OpGEMM, (*profiler.ClassStats).L1HitRate), 0, 1), q("SpMM", perOp(gpu.OpSpMM, (*profiler.ClassStats).L1HitRate), 0, 1))},
	{"fig6", "gather/reduction/element-wise low L1", "<15%", "reproduced", "",
		within(q("gather", perOp(gpu.OpGather, (*profiler.ClassStats).L1HitRate), 0, 0.30),
			q("reduction", perOp(gpu.OpReduction, (*profiler.ClassStats).L1HitRate), 0, 0.30),
			q("element-wise", perOp(gpu.OpElementWise, (*profiler.ClassStats).L1HitRate), 0, 0.30))},
	{"fig6", "substantial divergent loads", "32.5% of loads", "per-op reproduced; workload-level average diluted", "⁵",
		within(q("SpMM", perOp(gpu.OpSpMM, (*profiler.ClassStats).DivergenceRate), 0.40, 1),
			q("index-select", perOp(gpu.OpIndexSelect, (*profiler.ClassStats).DivergenceRate), 0.40, 1),
			q("gather", perOp(gpu.OpGather, (*profiler.ClassStats).DivergenceRate), 0.40, 1),
			q("embedding", perOp(gpu.OpEmbedding, (*profiler.ClassStats).DivergenceRate), 0, 1),
			q("GEMM", perOp(gpu.OpGEMM, (*profiler.ClassStats).DivergenceRate), 0, 0.05),
			q("Conv", perOp(gpu.OpConv, (*profiler.ClassStats).DivergenceRate), 0, 0.05),
			q("workload-level average", mean(func(a Averages) float64 { return a.DivergenceRate }), 0, 1))},

	{"fig7", "substantial average H2D sparsity", "43.2%", "reproduced", "",
		within(q("", mean(func(a Averages) float64 { return a.AvgSparsity }), 0.25, 1))},
	{"fig7", "PSAGE sparsity is model+dataset dependent", "MVL 22% vs NWP 11%", "reproduced (near-exact)", "",
		func(e *Evidence) (string, error) {
			mvl, nwp := of("PSAGE(MVL)", sparsity)(e), of("PSAGE(NWP)", sparsity)(e)
			return fmt.Sprintf("MVL %s vs NWP %s", pct(mvl), pct(nwp)), need(mvl > nwp, "MVL transfers must be sparser than NWP's")
		}},
	{"fig7", "activation-style inputs highly sparse (ARGA etc.)", "—", "reproduced", "",
		within(q("ARGA", of("ARGA(cora)", sparsity), 0.80, 1), q("DGCN", of("DGCN", sparsity), 0, 1), q("KGNN", of("KGNNL", sparsity), 0, 1))},
	{"fig7", "compression opportunity", "suggested", "extension implemented (`fig7` est.compr column)", "",
		func(e *Evidence) (string, error) {
			half := CompressionRatio(0.5)
			return fmt.Sprintf("zero-RLE estimate: ARGA %.1f×, DGCN %.1f×", CompressionRatio(of("ARGA(cora)", sparsity)(e)), CompressionRatio(of("DGCN", sparsity)(e))),
				need(CompressionRatio(0) == 1 && half >= 1.5 && half <= 2.1 && CompressionRatio(0.9) > half,
					"the estimate must be 1 on dense data, 1.5-2.1 at 50%% zeros (%.2f) and grow with sparsity", half)
		}},

	{"fig8", "sparsity follows a clear, predictable pattern over training", "repeats", "reproduced", "",
		func(e *Evidence) (string, error) {
			// Iteration 0 is construction tagging; after it, iteration i and
			// i + one epoch's iterations must match on every run.
			epochs, worst, at := len(e.Suite.Results[0].EpochSeconds), 0.0, ""
			if epochs < 2 {
				return "one epoch: no second period to compare", nil
			}
			for _, r := range e.Suite.Results {
				tl := r.SparsityTimeline
				period := (len(tl) - 1) / epochs
				for i := 1; i+period < len(tl); i++ {
					if d := math.Abs(tl[i] - tl[i+period]); d > worst {
						worst, at = d, fmt.Sprintf("%s iteration %d", r.Label(), i)
					}
				}
			}
			return fmt.Sprintf("all %d series repeat with the epoch's period over %d epochs (largest deviation %.2f points)",
				len(e.Suite.Results), epochs, 100*worst), need(worst <= 0.02, "not periodic at %s", at)
		}},

	{"fig9", "DGCN, STGCN, GW show considerable gains", "yes", "reproduced", "⁶",
		func(e *Evidence) (string, error) {
			measured, err := within(quantity{"STGCN", speedup4("STGCN"), "%.2f×", 1.4, inf},
				quantity{"DGCN", speedup4("DGCN"), "%.2f×", 1.2, inf}, quantity{"GW", speedup4("GW"), "%.2f×", 1.2, inf})(e)
			return measured, errors.Join(err, need(min(speedup4("DGCN")(e), speedup4("GW")(e)) > speedup4("TLSTM")(e),
				"DGCN and GW must scale better than launch-bound TLSTM"))
		}},
	{"fig9", "TLSTM does not benefit (low-intensity LSTM)", "flat", "reproduced", "",
		within(quantity{"", speedup4("TLSTM"), "%.2f×", 0.85, 1.25})},
	{"fig9", "PSAGE degrades: sampler incompatible with DDP, data replicated", "slowdown", "reproduced", "",
		func(e *Evidence) (string, error) {
			r := e.at("PSAGE")
			return fmt.Sprintf("%.2f× (monotone: %.2f× at 2 GPUs)", r[2].Speedup, r[1].Speedup),
				need(r[2].Replicated && r[2].Speedup < 1 && r[2].Speedup <= r[1].Speedup, "PSAGE must run replicated, below 1x, falling with the world size")
		}},
	{"fig9", "ARGA excluded (full-graph training)", "excluded", "reproduced", "",
		func(e *Evidence) (string, error) {
			for _, sr := range e.Scaling {
				if sr.Workload == "ARGA" {
					return "included", errors.New("ARGA must be excluded from the scaling study")
				}
			}
			return "excluded", nil
		}},
	{"fig9", "k-GNNs", "little benefit", "reproduced", "",
		within(quantity{"KGNNL", speedup4("KGNNL"), "%.2f×", 0, 1.25}, quantity{"KGNNH", speedup4("KGNNH"), "%.2f×", 0, 1.25})},
	{"fig9", "GW, the deepest parameter stack, pays the most allreduce time and hides part of it behind backward (executed engine)", "—", "reproduced", "",
		func(e *Evidence) (string, error) {
			gw, scalable := e.at("GW")[2], 0
			var errs []error
			for _, sr := range e.Scaling {
				r := sr.Results[2]
				if !r.Replicated && r.Speedup > 1 {
					scalable++
					errs = append(errs, need(r.Speedup >= gw.Speedup, "GW must be the worst-scaling workload that gains, but %s is %.2fx", sr.Workload, r.Speedup))
				}
				if sr.Workload != "GW" && !r.Replicated {
					errs = append(errs, need(r.CommSeconds < gw.CommSeconds, "GW's comm must dominate the sharded workloads', but %s has %.3gs", sr.Workload, r.CommSeconds))
				}
				errs = append(errs, need(math.Abs(r.CommSeconds-(r.ExposedCommSeconds+r.OverlappedCommSeconds)) <= 1e-9,
					"%s: comm %.3g != exposed %.3g + hidden %.3g", sr.Workload, r.CommSeconds, r.ExposedCommSeconds, r.OverlappedCommSeconds))
			}
			errs = append(errs, need(scalable >= 3 && gw.Speedup > 1, "want >= 3 workloads that gain, GW among them: %d, GW %.2fx", scalable, gw.Speedup),
				need(gw.Buckets >= 2 && gw.OverlappedCommSeconds > 0, "GW must hide comm behind backward"))
			return fmt.Sprintf("GW at 4 GPUs: %.2fx, %.2f ms of allreduce in %d buckets, %.2f ms of it hidden",
				gw.Speedup, 1e3*gw.CommSeconds, gw.Buckets, 1e3*gw.OverlappedCommSeconds), errors.Join(errs...)
		}},
}
