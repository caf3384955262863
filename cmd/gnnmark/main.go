// Command gnnmark runs the GNNMark suite reproduction: it trains the eight
// GNN workloads on a simulated V100, collects the paper's characterization
// metrics, and prints every table and figure of the evaluation.
//
// Usage:
//
//	gnnmark <command> [flags]
//
// Run gnnmark with no arguments for the command list (usage, below, is the
// one place it is kept). The most used:
//
//	gnnmark table1
//	gnnmark fig2 ... fig9, figm, figp, figpart, figf [flags]
//	gnnmark run -workload PSAGE -dataset NWP [-gpus N [-parallelism partitioned]] [flags]
//	gnnmark all [flags]
//	gnnmark serve-bench [-replicas N -batches 1,4,16 -cache-rows 0,1024] [-smoke]
//	gnnmark scenario run|check FILE...
//	gnnmark opbench -out BENCH_opbench.json [-smoke]
//	gnnmark benchdiff [-warn-only] OLD.json NEW.json
//
// Flags: -epochs N, -seed N, -warps N (cache-replay sampling budget; lower
// is faster), -workload KEY, -dataset NAME; -pipeline-depth N enables the
// asynchronous input pipeline (with -loader-workers N and -compress-h2d);
// `run` additionally takes -metrics-out FILE (host metrics JSON) and
// -host-trace FILE (merged host+device chrome://tracing timeline).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gnnmark/internal/bench"
	"gnnmark/internal/core"
	"gnnmark/internal/gpu"
	"gnnmark/internal/obs"
	"gnnmark/internal/opbench"
	"gnnmark/internal/ops"
	"gnnmark/internal/report"
	"gnnmark/internal/serve"
	"gnnmark/internal/stream"
	"gnnmark/internal/trace"
	"gnnmark/internal/vmem"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	epochs := fs.Int("epochs", 3, "training epochs per workload")
	seed := fs.Int64("seed", 1, "random seed")
	warps := fs.Int("warps", 4096, "max sampled warps per kernel (model fidelity/speed)")
	workload := fs.String("workload", "ARGA", "workload key (run command)")
	dataset := fs.String("dataset", "", "dataset name (run command; empty = default)")
	gpuName := fs.String("gpu", "v100", "device preset: v100, p100, a100, h100")
	target := fs.Float64("target", 0.5, "loss target for the ttt command")
	sweepKey := fs.String("sweep", "DGCN/layers", "sweep key: WORKLOAD/param (sweep command)")
	sweepVals := fs.String("values", "4,14,28", "comma-separated sweep values")
	traceOut := fs.String("trace", "", "write a chrome://tracing timeline to this file (run command)")
	metricsOut := fs.String("metrics-out", "", "write the host-observability metrics snapshot (JSON) to this file (run command)")
	hostTrace := fs.String("host-trace", "", "write a merged host+device chrome://tracing timeline to this file (run command)")
	maxEpochs := fs.Int("max-epochs", 50, "epoch cutoff for the ttt command")
	backendName := fs.String("backend", "serial", "CPU numerics backend: serial or parallel (identical results; parallel is faster on large workloads)")
	gpus := fs.Int("gpus", 1, "simulated GPU count for executed DDP training (run command; >1 trains replicas with bucketed ring-allreduce)")
	parallelism := fs.String("parallelism", "ddp", "multi-GPU execution plane for the run command: ddp (replicated model, sharded batches) or partitioned (one graph partition per GPU with halo exchange; ARGA and DGCN only)")
	overlap := fs.Bool("overlap", true, "overlap halo exchange with interior compute (partitioned plane; false serializes every exchange)")
	hbmGB := fs.Float64("hbm-gb", 0, "simulated device-memory budget in GiB (0 = GPU preset capacity; too small fails with a simulated OOM report)")
	pipelineDepth := fs.Int("pipeline-depth", 0, "asynchronous input pipeline prefetch depth (0 = synchronous loading; numerics are identical either way)")
	loaderWorkers := fs.Int("loader-workers", 0, "input-loader worker goroutines (0 = default; affects host scheduling only)")
	compressH2D := fs.Bool("compress-h2d", false, "time H2D copies on sparsity-encoded bytes (zero-run/bitmap codec); requires -pipeline-depth > 0")
	benchOut := fs.String("out", "BENCH_opbench.json", "output path for the opbench report")
	benchSmoke := fs.Bool("smoke", false, "opbench: reduced CI sweep; serve-bench: single low-load arm asserting nonzero QPS and zero rejects")
	benchReps := fs.Int("reps", 0, "opbench: timed repetitions per measurement (0 = default plan)")
	benchBackends := fs.String("backends", "", "opbench: comma-separated backend names (empty = all)")
	diffBudget := fs.Float64("budget", 1.10, "benchdiff: regression budget as a median ratio (1.10 = fail beyond +10%)")
	diffMADK := fs.Float64("mad-k", 4, "benchdiff: significance bar in combined MADs")
	diffWarnOnly := fs.Bool("warn-only", false, "benchdiff: report regressions without failing (coverage/schema drift still fails)")
	serveReplicas := fs.Int("replicas", 2, "serve-bench: frozen-replica count, one simulated device each")
	serveQPS := fs.Float64("serve-qps", 0, "serve-bench: offered open-loop arrival rate (0 = 4x the measured batch-1 capacity)")
	serveDuration := fs.Float64("serve-duration", 0, "serve-bench: arrival-trace horizon in simulated seconds (0 = 400 batch-1 service times)")
	maxWaitUS := fs.Float64("max-wait-us", 0, "serve-bench: micro-batching window in microseconds (0 = one batch-1 service time)")
	queueCap := fs.Int("queue-cap", 64, "serve-bench: admission-queue bound; arrivals beyond it are rejected (negative = unbounded)")
	serveBatches := fs.String("batches", "1,4,16", "serve-bench: comma-separated MaxBatch policy arms")
	cacheRows := fs.String("cache-rows", "0,1024", "serve-bench: comma-separated embedding-cache sizes in rows (0 = no cache)")
	arrivalsPath := fs.String("arrivals", "", "serve-bench: replay this arrival-trace file (\"<timestamp_us> <item>\" lines) instead of generating one")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	cfg := core.RunConfig{Epochs: *epochs, Seed: *seed, SampledWarps: *warps, GPU: *gpuName, Backend: *backendName, GPUs: *gpus, HBMGB: *hbmGB,
		Parallelism: *parallelism, Overlap: *overlap,
		PipelineDepth: *pipelineDepth, LoaderWorkers: *loaderWorkers, CompressH2D: *compressH2D}
	if *metricsOut != "" || *hostTrace != "" {
		obs.Enable()
	}

	switch cmd {
	case "table1":
		fmt.Print(bench.Table1())
	case "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "figm":
		s := characterize(cfg)
		fmt.Print(figure(s, cmd))
	case "fig9":
		res, err := bench.Fig9(cfg)
		fail(err)
		fmt.Print(bench.FormatFig9(res))
	case "figp":
		figpCfg := cfg
		if figpCfg.PipelineDepth <= 0 {
			figpCfg.PipelineDepth = 4
		}
		res, err := bench.FigP(figpCfg)
		fail(err)
		fmt.Print(bench.FormatFigP(res, figpCfg.PipelineDepth, figpCfg.CompressH2D))
		writeObsOutputs(*metricsOut, *hostTrace, nil, nil)
	case "opbench":
		runOpbench(*benchOut, *benchSmoke, *benchReps, *benchBackends, *seed)
	case "benchdiff":
		runBenchdiff(fs.Args(), *diffBudget, *diffMADK, *diffWarnOnly)
	case "scenario":
		runScenario(fs.Args())
	case "run":
		cfg.Workload = *workload
		cfg.Dataset = *dataset
		if *traceOut != "" {
			runWithTrace(cfg, *traceOut)
			return
		}
		var rec *trace.Recorder
		if *hostTrace != "" && cfg.GPUs <= 1 {
			// Attach a device recorder before any kernels launch so the
			// merged timeline carries both planes; under DDP (many devices)
			// only the host plane is written.
			cfg.OnDevice = func(dev *gpu.Device) { rec = trace.Attach(dev, 0) }
		}
		if cfg.GPUs > 1 && cfg.Parallelism == "partitioned" {
			res, err := core.RunPartitioned(cfg)
			fail(err)
			fmt.Print(bench.FormatPartitionedRun(*workload, res))
			// Halo-exchange lanes render as named threads beside the host
			// spans: one "gpuN compute" / "gpuN halo" pair per rank.
			writeObsOutputs(*metricsOut, *hostTrace, nil, trace.RankLanes(res.Lanes))
			return
		}
		if cfg.GPUs > 1 {
			res, err := core.RunDDP(cfg)
			fail(err)
			fmt.Print(bench.FormatStrongScaling(*workload, res))
			for _, r := range res {
				for i, hp := range r.HostPhases {
					fmt.Printf("obs %d-gpu epoch %d: %s\n", r.GPUs, i+1, hp)
				}
			}
			writeObsOutputs(*metricsOut, *hostTrace, nil, nil)
			return
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
		writeObsOutputs(*metricsOut, *hostTrace, rec, r.StreamLanes)
	case "all":
		fmt.Print(bench.Table1())
		fmt.Println()
		s := characterize(cfg)
		for _, f := range []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "figm"} {
			fmt.Print(figure(s, f))
			fmt.Println()
		}
		res, err := bench.Fig9(cfg)
		fail(err)
		fmt.Print(bench.FormatFig9(res))
	case "ablate-fp16":
		ablateFP16(cfg)
	case "ablate-l1bypass":
		ablateL1Bypass(cfg)
	case "infer":
		cfg.Workload = *workload
		cfg.Dataset = *dataset
		train, inf, err := bench.InferenceContrast(cfg)
		fail(err)
		fmt.Print(bench.FormatInference(*workload, train, inf))
	case "dnn-contrast":
		s := characterize(cfg)
		dnn, err := bench.DNNBaseline(cfg)
		fail(err)
		fmt.Print(bench.FormatContrast(s, dnn))
	case "gpucompare":
		cfg.Workload = *workload
		reports, err := bench.GPUCompare(cfg)
		fail(err)
		fmt.Print(bench.FormatGPUCompare(*workload, reports))
	case "datasets":
		fmt.Print(bench.DatasetInventory(*seed))
	case "params":
		fmt.Print(bench.ModelInventory(*seed))
	case "report":
		s := characterize(cfg)
		res, err := bench.Fig9(cfg)
		fail(err)
		out := *traceOut
		if out == "" {
			out = "gnnmark-report.html"
		}
		f, err := os.Create(out)
		fail(err)
		defer f.Close()
		fail(report.WriteHTML(f, s, res))
		fmt.Println("wrote", out)
	case "figpart":
		if cfg.GPUs <= 1 {
			cfg.GPUs = 4
		}
		res, err := bench.FigPart(cfg)
		fail(err)
		fmt.Print(bench.FormatFigPart(res))
		writeObsOutputs(*metricsOut, *hostTrace, nil, nil)
	case "figf":
		res, err := bench.FigF(cfg)
		fail(err)
		fmt.Print(bench.FormatFigF(res))
		writeObsOutputs(*metricsOut, *hostTrace, nil, nil)
	case "serve-bench":
		// The flagship serving workload is PinSAGE; -workload overrides.
		cfg.Workload = "PSAGE"
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "workload" {
				cfg.Workload = *workload
			}
		})
		cfg.Dataset = *dataset
		scfg := bench.ServeConfig{
			Run:            cfg,
			Replicas:       *serveReplicas,
			QPS:            *serveQPS,
			Duration:       *serveDuration,
			MaxWaitSeconds: *maxWaitUS * 1e-6,
			QueueCap:       *queueCap,
			Batches:        parseInts(*serveBatches),
			CacheRows:      parseInts(*cacheRows),
		}
		if *arrivalsPath != "" {
			f, err := os.Open(*arrivalsPath)
			fail(err)
			reqs, err := serve.ParseArrivalTrace(f)
			f.Close()
			fail(err)
			scfg.Arrivals = reqs
		}
		if *benchSmoke {
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
		fmt.Print(bench.FormatFigS(res))
		if *benchSmoke {
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
		writeObsOutputs(*metricsOut, *hostTrace, nil, nil)
	case "sweep":
		var vals []int
		for _, f := range strings.Split(*sweepVals, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			fail(err)
			vals = append(vals, v)
		}
		points, err := bench.Sweep(*sweepKey, vals, cfg)
		fail(err)
		fmt.Print(bench.FormatSweep(*sweepKey, points))
	case "roofline":
		cfg.Workload = *workload
		cfg.Dataset = *dataset
		r, err := core.Run(cfg)
		fail(err)
		devCfg, err := gpu.Preset(*gpuName)
		fail(err)
		fmt.Print(bench.FormatRoofline(r.Label(), bench.Roofline(r, devCfg), devCfg))
	case "ttt":
		cfg.Workload = *workload
		cfg.Dataset = *dataset
		res, err := core.TimeToTrain(cfg, *target, *maxEpochs)
		fail(err)
		status := "converged"
		if !res.Converged {
			status = "cutoff"
		}
		fmt.Printf("%s time-to-train(loss<=%.3f): %d epochs, %.3f ms simulated GPU time (%s)\n",
			res.Workload, res.TargetLoss, res.Epochs, 1e3*res.SimSeconds, status)
		fmt.Printf("loss curve: %.4v\n", res.LossCurve)
	default:
		usage()
		os.Exit(2)
	}
}

// ablateL1Bypass compares every workload with and without the L1 data
// cache: the paper's suggested bypass mitigation.
func ablateL1Bypass(cfg core.RunConfig) {
	fmt.Println("L1-bypass ablation: simulated kernel seconds per run")
	fmt.Printf("%-12s %12s %12s %10s\n", "workload", "with L1", "bypassed", "delta")
	for _, sr := range core.DefaultSuite() {
		c := cfg
		c.Workload, c.Dataset = sr.Workload, sr.Dataset
		normal, bypassed, err := bench.L1BypassAblation(c)
		fail(err)
		fmt.Printf("%-12s %12.5f %12.5f %+9.1f%%\n", labelOf(sr), normal, bypassed,
			100*(bypassed-normal)/normal)
	}
}

// runWithTrace characterizes one workload while recording the kernel
// timeline, then writes it in the Chrome trace-event format.
func runWithTrace(cfg core.RunConfig, path string) {
	var rec *trace.Recorder
	cfg.OnDevice = func(dev *gpu.Device) { rec = trace.Attach(dev, 0) }
	rep, err := core.NewReplica(cfg, 0, 0, 1)
	fail(err)
	env := rep.Env
	defer env.Close()
	// The replica is not rebased, so the trace shows construction too. The
	// overlapped timeline starts where training starts: lane slices are
	// shifted by the construction offset to line up with the device rows
	// above them.
	pipeOrigin := rep.Dev.ElapsedSeconds()
	for e := 0; e < max(1, cfg.Epochs); e++ {
		_, err := rep.Epoch()
		fail(err)
	}
	f, err := os.Create(path)
	fail(err)
	defer f.Close()
	events := rec.TimelineEvents()
	if lanes := env.E.StreamLanes(); len(lanes) > 0 {
		for li := range lanes {
			shifted := make([]stream.Slice, len(lanes[li].Slices))
			copy(shifted, lanes[li].Slices)
			for si := range shifted {
				shifted[si].Start += pipeOrigin
			}
			lanes[li].Slices = shifted
		}
		events = append(events, trace.StreamLaneEvents(lanes)...)
	}
	fail(trace.WriteEvents(f, events))
	fmt.Printf("%s: wrote %d timeline events to %s (open in chrome://tracing)\n",
		rep.Spec.Key, len(events), path)
}

// runOpbench executes the per-op microbenchmark sweep and writes the
// BENCH_opbench.json trajectory point. Progress goes to stderr so the
// artifact path on stdout stays scriptable.
func runOpbench(out string, smoke bool, reps int, backends string, seed int64) {
	cfg := opbench.Config{
		Smoke: smoke,
		Reps:  reps,
		Seed:  seed,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if backends != "" {
		for _, b := range strings.Split(backends, ",") {
			cfg.Backends = append(cfg.Backends, strings.TrimSpace(b))
		}
	}
	rep, err := opbench.Run(cfg)
	fail(err)
	fail(rep.WriteFile(out))
	mode := "full"
	if smoke {
		mode = "smoke"
	}
	fmt.Printf("wrote %d measurements (%s sweep) to %s\n", len(rep.Results), mode, out)
}

// runBenchdiff compares two opbench reports and renders the benchstat-style
// table. Exit codes: 2 for schema or shape-coverage drift (always fatal),
// 1 for a regression beyond the budget (suppressed by -warn-only), 0
// otherwise. Flags must precede the two positional report paths.
func runBenchdiff(paths []string, budget, madK float64, warnOnly bool) {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: gnnmark benchdiff [-budget N] [-mad-k N] [-warn-only] OLD.json NEW.json")
		os.Exit(2)
	}
	old, err := opbench.ReadFile(paths[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "gnnmark:", err)
		os.Exit(2)
	}
	cur, err := opbench.ReadFile(paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "gnnmark:", err)
		os.Exit(2)
	}
	d, err := opbench.Compare(old, cur, opbench.DiffConfig{Budget: budget, MADK: madK})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gnnmark:", err)
		os.Exit(2)
	}
	fmt.Print(d.Markdown())
	if d.CoverageDrift() {
		fmt.Fprintln(os.Stderr, "gnnmark: shape coverage drift — the new report is missing required measurements")
		os.Exit(2)
	}
	if d.Regressions > 0 && !warnOnly {
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
func writeObsOutputs(metricsPath, tracePath string, rec *trace.Recorder, lanes []stream.Lane) {
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		fail(err)
		fail(obs.WriteMetricsJSON(f))
		fail(f.Close())
		fmt.Println("wrote host metrics to", metricsPath)
	}
	if tracePath != "" {
		events := trace.HostEvents()
		if len(lanes) > 0 {
			events = append(trace.StreamLaneEvents(lanes), events...)
		}
		dropped := 0
		if rec != nil {
			events = append(rec.TimelineEvents(), events...)
			dropped = rec.Dropped()
		}
		f, err := os.Create(tracePath)
		fail(err)
		fail(trace.WriteEvents(f, events))
		fail(f.Close())
		fmt.Printf("wrote %d merged host+device trace events to %s (open in chrome://tracing)\n",
			len(events), tracePath)
		if dropped > 0 {
			fmt.Printf("note: %d device events dropped at the recorder limit\n", dropped)
		}
	}
}

// parseInts parses a comma-separated integer list (sweep arms and the like).
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

func labelOf(sr core.SuiteRun) string {
	if sr.Workload == "PSAGE" {
		return sr.Workload + "(" + sr.Dataset + ")"
	}
	return sr.Workload
}

func characterize(cfg core.RunConfig) *bench.Suite {
	s, err := bench.Characterize(cfg)
	fail(err)
	return s
}

func figure(s *bench.Suite, name string) string {
	switch name {
	case "fig2":
		return s.Fig2()
	case "fig3":
		return s.Fig3()
	case "fig4":
		return s.Fig4()
	case "fig5":
		return s.Fig5()
	case "fig6":
		return s.Fig6()
	case "fig7":
		return s.Fig7()
	case "fig8":
		return s.Fig8()
	case "figm":
		return s.FigM()
	}
	panic("unknown figure " + name)
}

// ablateFP16 compares fp32 and fp16 storage modes per workload: the paper's
// half-precision future-work item.
func ablateFP16(cfg core.RunConfig) {
	fmt.Println("fp16 ablation: simulated kernel seconds per epoch (fp32 vs fp16)")
	fmt.Printf("%-12s %12s %12s %8s\n", "workload", "fp32 (s)", "fp16 (s)", "speedup")
	for _, sr := range core.DefaultSuite() {
		c := cfg
		c.Workload, c.Dataset = sr.Workload, sr.Dataset
		base, err := core.Run(c)
		fail(err)
		c.HalfPrecision = true
		half, err := core.Run(c)
		fail(err)
		b := base.Report.KernelSeconds
		h := half.Report.KernelSeconds
		fmt.Printf("%-12s %12.5f %12.5f %7.2fx\n", base.Label(), b, h, b/h)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gnnmark:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gnnmark <command> [flags]
commands:
  run              characterize one workload (-workload, -dataset; -gpus N for executed multi-GPU training)
  all              the full reproduction: Table I plus every figure
  table1           print the suite inventory (Table I)
  fig2..fig8       regenerate one figure of the paper
  fig9             multi-GPU strong-scaling study on the executed DDP engine (1/2/4 GPUs)
  figm             per-workload device-memory footprint table
  figp             asynchronous-input-pipeline study: sync vs overlapped epoch time (-pipeline-depth, -compress-h2d)
  figpart          executed DDP vs executed graph-partitioned training: scaling, comm volume, edge-cut sweep (-gpus)
  figf             goodput under churn: fault-injected fleet, elastic drop-and-reshard vs fail-stop replacement (-gpus, -seed)
  serve-bench      Figure S, the inference serving plane: QPS vs tail latency across micro-batch policies and
                   embedding-cache sizes on frozen-weight replicas (-replicas, -serve-qps, -serve-duration,
                   -max-wait-us, -queue-cap, -batches, -cache-rows, -arrivals FILE, -smoke)
  scenario         declarative chaos harness: "scenario run FILE..." executes scenario files (fleet + workload +
                   timed events + assertions) deterministically and exits non-zero on a failed assertion;
                   "scenario check FILE..." parses and validates without executing (see scenarios/)
  opbench          per-op microbenchmark sweep over workload shape classes on both backends (-out, -smoke, -reps, -backends)
  benchdiff        noise-aware comparison of two opbench reports (-budget, -mad-k, -warn-only, then OLD.json NEW.json)
  infer            training-vs-inference op-mix contrast (-workload)
  dnn-contrast     GNN suite vs conventional-CNN baseline
  ablate-fp16      half-precision storage ablation
  ablate-l1bypass  L1 cache bypass ablation
  gpucompare       characterize one workload on P100/V100/A100 (-workload)
  ttt              MLPerf-style time-to-train (-workload, -target, -max-epochs)
  roofline         per-operation roofline placement (-workload, -gpu)
  sweep            hyperparameter sweep (-sweep WORKLOAD/param -values a,b,c)
  report           write the full characterization as an HTML page (-trace sets the path)
  datasets         structural statistics of every synthetic dataset
  params           per-workload parameter and iteration counts
flags: -epochs N  -seed N  -warps N  -workload KEY  -dataset NAME  -backend serial|parallel  -gpus N  -hbm-gb N
       -parallelism ddp|partitioned  -overlap=true|false  (run: multi-GPU execution plane; partitioned = one graph part per GPU, halo exchange)
       -pipeline-depth N  -loader-workers N  -compress-h2d  (asynchronous input pipeline; identical numerics)
       -trace FILE  -metrics-out FILE  -host-trace FILE  (run/figp/figpart/figf/serve-bench: device trace / host metrics JSON / merged host+device trace)`)
}
