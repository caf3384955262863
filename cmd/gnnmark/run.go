package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gnnmark/internal/bench"
	"gnnmark/internal/core"
	"gnnmark/internal/gpu"
	"gnnmark/internal/opbench"
	"gnnmark/internal/ops"
	"gnnmark/internal/report"
	"gnnmark/internal/serve"
	"gnnmark/internal/trace"
	"gnnmark/internal/vmem"
)

// runWorkload is `run`: one workload on one device, or on cfg.GPUs of them
// under the DDP or the partitioned plane. -trace writes the device rows and
// the stream lanes on one device, the rank lanes on the partitioned plane.
func runWorkload(o *options) {
	cfg := o.cfg
	switch {
	case cfg.GPUs > 1 && cfg.Parallelism == "partitioned":
		res, err := core.RunPartitioned(cfg)
		fail(err)
		fmt.Print(bench.PartitionedRunFigure(cfg.Workload, res).Text())
		// Halo-exchange lanes render as named threads beside the host
		// spans: one "gpuN compute" / "gpuN halo" pair per rank.
		o.lanes = trace.RankLanes(res.Lanes)
	case cfg.GPUs > 1:
		if o.traceOut != "" {
			fail(errors.New("run: -trace needs one device timeline, and DDP runs one per GPU; -host-trace writes the host plane"))
		}
		res, err := core.RunDDP(cfg)
		fail(err)
		fmt.Print(bench.StrongScalingFigure(cfg.Workload, res).Text())
		for _, r := range res {
			for i, hp := range r.HostPhases {
				fmt.Printf("obs %d-gpu epoch %d: %s\n", r.GPUs, i+1, hp)
			}
		}
	default:
		runOneDevice(o)
	}
	if o.traceOut == "" {
		return
	}
	var events []trace.Event
	if o.rec != nil {
		events = o.rec.TimelineEvents()
	}
	events = append(events, trace.StreamLaneEvents(o.lanes)...)
	f, err := os.Create(o.traceOut)
	fail(err)
	fail(trace.WriteEvents(f, events))
	fail(f.Close())
	fmt.Printf("%s: wrote %d timeline events to %s (open in chrome://tracing)\n", cfg.Workload, len(events), o.traceOut)
}

// runOneDevice is `run` on one device.
func runOneDevice(o *options) {
	cfg := o.cfg
	if o.traceOut != "" || o.hostTrace != "" {
		// Attach a device recorder before any kernels launch, so the
		// timelines carry the device rows.
		cfg.OnDevice = func(dev *gpu.Device) { o.rec = trace.Attach(dev) }
	}
	r, err := core.Run(cfg)
	fail(err)
	fmt.Printf("%s on %s: %d params, losses %v\n", r.Workload, r.Dataset, r.ParamCount, r.Losses)
	fmt.Printf("epoch seconds (simulated): %v\n", r.EpochSeconds)
	fmt.Printf("device memory: peak live %s, reserved %s, %d allocs (%.1f%% reused, %.1f%% fragmentation)\n",
		vmem.FormatBytes(r.Mem.PeakLive), vmem.FormatBytes(r.Mem.PeakReserved),
		r.Mem.Allocs, 100*r.Mem.ReuseRate(), 100*r.Mem.PeakFragmentation())
	for i, hp := range r.HostPhases {
		line := fmt.Sprintf("obs epoch %d: %s", i+1, hp)
		if i < len(r.Pipe) {
			line += ", " + pipeSummary(r.Pipe[i])
		}
		fmt.Println(line)
		if i < len(r.HostOpClasses) {
			fmt.Printf("obs epoch %d op classes: %s\n", i+1, r.HostOpClasses[i].Summary(hp.PhaseNanos()))
		}
	}
	if len(r.HostPhases) == 0 {
		// Without host observability the pipeline stats still print.
		for i, pe := range r.Pipe {
			fmt.Printf("pipeline epoch %d: %s\n", i+1, pipeSummary(pe))
		}
	}
	fmt.Print(r.Report.String())
	o.lanes = r.StreamLanes
}

// runAll is `all`: Table I, every single-suite figure from one
// characterization, then the scaling study — each figure followed by the
// paper's claims about it, measured and judged (bench.Claims). A claim whose
// check fails is named on stderr and the exit code is 1.
func runAll(o *options) {
	fmt.Print(bench.Table1().Text())
	fmt.Println()
	ev := &bench.Evidence{Suite: must(bench.Characterize(o.cfg))}
	var broken []error
	show := func(f bench.Figure) {
		fmt.Print(f.Text())
		if table, err := bench.ClaimTable(f.ID, ev); table != "" {
			fmt.Print("\n", table)
			broken = append(broken, err)
		}
	}
	for _, f := range ev.Suite.Figures() {
		show(f)
		fmt.Println()
	}
	ev.Scaling = must(bench.Fig9(o.cfg))
	show(bench.Fig9Figure(ev.Scaling))
	fail(errors.Join(broken...))
}

func runReport(o *options) {
	s := must(bench.Characterize(o.cfg))
	figures := append(append([]bench.Figure{bench.Table1()}, s.Figures()...), bench.Fig9Figure(must(bench.Fig9(o.cfg))))
	f, err := os.Create(o.traceOut)
	fail(err)
	defer f.Close()
	fail(report.WriteHTML(f, s.Device.Name, figures))
	fmt.Println("wrote", o.traceOut)
}

func runServeBench(o *options) {
	scfg := o.serve
	scfg.Run = o.cfg
	scfg.MaxWaitSeconds = o.maxWaitUS * 1e-6
	scfg.Batches = parseInts(o.batches)
	scfg.CacheRows = parseInts(o.cacheRows)
	if o.arrivals != "" {
		f, err := os.Open(o.arrivals)
		fail(err)
		reqs, err := serve.ParseArrivalTrace(f)
		f.Close()
		fail(err)
		scfg.Arrivals = reqs
	}
	if o.smoke {
		// One low-load arm on a reduced device model: a healthy endpoint
		// must complete requests and reject nothing.
		scfg.Run.Epochs = 1
		scfg.Run.SampledWarps = 256
		scfg.Replicas = 1
		scfg.LoadFactor = 0.5
		scfg.Batches = []int{8}
		scfg.CacheRows = []int{256}
	}
	res, err := bench.FigS(scfg)
	fail(err)
	fmt.Print(res.Figure().Text())
	if o.smoke {
		for _, row := range res.Rows {
			if row.Stats.QPS <= 0 {
				fail(fmt.Errorf("serve-bench smoke: arm b%d/c%d served zero QPS",
					row.MaxBatch, row.CacheRows))
			}
			if row.Stats.Rejected > 0 {
				fail(fmt.Errorf("serve-bench smoke: arm b%d/c%d rejected %d requests at low load",
					row.MaxBatch, row.CacheRows, row.Stats.Rejected))
			}
		}
		fmt.Println("serve-bench smoke: ok — nonzero QPS, zero rejects at low load")
	}
}

// runOpbench executes the per-op microbenchmark sweep and writes the
// BENCH_opbench.json trajectory point. Progress goes to stderr so the
// artifact path on stdout stays scriptable.
func runOpbench(o *options) {
	cfg := opbench.Config{
		Smoke: o.smoke,
		Reps:  o.reps,
		Seed:  o.cfg.Seed,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if o.backends != "" {
		for _, b := range strings.Split(o.backends, ",") {
			cfg.Backends = append(cfg.Backends, strings.TrimSpace(b))
		}
	}
	rep, err := opbench.Run(cfg)
	fail(err)
	fail(rep.WriteFile(o.benchOut))
	mode := "full"
	if o.smoke {
		mode = "smoke"
	}
	fmt.Printf("wrote %d measurements (%s sweep) to %s\n", len(rep.Results), mode, o.benchOut)
}

// runBenchdiff compares two opbench reports and renders the benchstat-style
// table. Exit codes: 2 for schema or shape-coverage drift (always fatal),
// 1 for a regression beyond the budget (suppressed by -warn-only), 0
// otherwise. Flags must precede the two positional report paths.
func runBenchdiff(o *options) {
	drift := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "gnnmark:", err)
			os.Exit(2)
		}
	}
	if len(o.args) != 2 {
		o.badOperands()
	}
	old, err := opbench.ReadFile(o.args[0])
	drift(err)
	cur, err := opbench.ReadFile(o.args[1])
	drift(err)
	d, err := opbench.Compare(old, cur, opbench.DiffConfig{Budget: o.budget, MADK: o.madK})
	drift(err)
	fmt.Print(d.Markdown())
	if d.CoverageDrift() {
		drift(fmt.Errorf("shape coverage drift — the new report is missing required measurements"))
	}
	if d.Regressions > 0 && !o.warnOnly {
		os.Exit(1)
	}
}

// pipeSummary renders one epoch's input-pipeline accounting: overlapped vs
// serialized epoch time, the copy-engine overlap fraction, and the raw vs
// wire H2D payload.
func pipeSummary(pe ops.PipeEpoch) string {
	return fmt.Sprintf("pipeline %.3fms vs sync %.3fms (%.2fx), overlap %.1f%%, h2d raw %s wire %s (%.2fx)",
		1e3*pe.PipeSeconds, 1e3*pe.SyncSeconds, pe.Speedup(), 100*pe.OverlapFraction(),
		vmem.FormatBytes(int64(pe.RawBytes)), vmem.FormatBytes(int64(pe.WireBytes())), pe.CompressionRatio())
}

// writeObsOutputs writes the host-observability artifacts requested on the
// command line: the metrics JSON snapshot and the merged host+device
// Chrome trace (host spans as a second process beside the device rows,
// stream lanes as extra named threads under the device process).
func (o *options) writeObsOutputs() {
	if o.metricsOut != "" {
		f, err := os.Create(o.metricsOut)
		fail(err)
		fail(o.cfg.Obs.WriteJSON(f))
		fail(f.Close())
		fmt.Println("wrote host metrics to", o.metricsOut)
	}
	if o.hostTrace != "" {
		events := trace.HostEvents(o.cfg.Obs)
		if len(o.lanes) > 0 {
			events = append(trace.StreamLaneEvents(o.lanes), events...)
		}
		dropped := 0
		if o.rec != nil {
			events = append(o.rec.TimelineEvents(), events...)
			dropped = o.rec.Dropped()
		}
		f, err := os.Create(o.hostTrace)
		fail(err)
		fail(trace.WriteEvents(f, events))
		fail(f.Close())
		fmt.Printf("wrote %d merged host+device trace events to %s (open in chrome://tracing)\n",
			len(events), o.hostTrace)
		if dropped > 0 {
			fmt.Printf("note: %d device events dropped at the recorder limit\n", dropped)
		}
	}
}

// parseInts parses a comma-separated integer list (sweep values, serving arms).
func parseInts(s string) []int {
	var vals []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		fail(err)
		vals = append(vals, v)
	}
	return vals
}
