// Command gnnmark runs the GNNMark suite reproduction: it trains the eight
// GNN workloads on a simulated V100, collects the paper's characterization
// metrics, and prints every table and figure of the evaluation. Run it with
// no arguments for the commands (the table below is the only list of them)
// and with `CMD -h` for the flags CMD takes.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"gnnmark/internal/bench"
	"gnnmark/internal/core"
	"gnnmark/internal/obs"
	"gnnmark/internal/stream"
	"gnnmark/internal/trace"
)

// command is one row of the CLI: its name, the operands it takes after its
// flags (empty for none), a one-line summary, the flag groups it binds — a
// group only if the command's code reads a field the group sets, so a flag
// a command would ignore is a flag it rejects — and either the id of the
// figure it prints (bench.Study.Figure) or, for the few commands that do
// something other than print one table, its body.
type command struct {
	name, operands, summary string
	flags                   []flagGroup
	run                     func(o *options)
	figure                  string
}

// commands is the CLI, and the only list of it: dispatch, usage and the
// tests all walk this table. It is filled in init because `all` walks it
// too, which a package-level initializer may not.
var commands []command

func init() {
	suite := []flagGroup{device}
	one := func(workload string) []flagGroup { return []flagGroup{device, workloadFlags(workload)} }
	commands = []command{
		{name: "run", summary: "characterize one workload; -gpus N trains it on N simulated GPUs (DDP, or -parallelism partitioned)",
			flags: []flagGroup{device, workloadFlags("ARGA"), pipeline, fleet, runPlane, traceOut, obsOut}, run: runWorkload},
		{name: "all", summary: "the full reproduction: Table I plus every figure", flags: suite, run: runAll},
		{name: "table1", summary: "print the suite inventory (Table I)", figure: "table1"},
		{name: "fig2", summary: "Figure 2: execution-time breakdown by operation class", flags: suite, figure: "fig2"},
		{name: "fig3", summary: "Figure 3: dynamic instruction mix", flags: suite, figure: "fig3"},
		{name: "fig4", summary: "Figure 4: achieved GFLOPS, GIOPS and IPC", flags: suite, figure: "fig4"},
		{name: "fig5", summary: "Figure 5: issue-stall breakdown", flags: suite, figure: "fig5"},
		{name: "fig6", summary: "Figure 6: L1/L2 hit rates and load divergence", flags: suite, figure: "fig6"},
		{name: "fig7", summary: "Figure 7: host-to-device transfer sparsity", flags: suite, figure: "fig7"},
		{name: "fig8", summary: "Figure 8: per-iteration transfer-sparsity timeline", flags: suite, figure: "fig8"},
		{name: "figm", summary: "per-workload device-memory footprint table", flags: suite, figure: "figm"},
		{name: "fig9", summary: "Figure 9: multi-GPU strong scaling on the executed DDP engine (1/2/4 GPUs)", flags: []flagGroup{hardware}, figure: "fig9"},
		{name: "figp", summary: "asynchronous-input-pipeline study: sync vs overlapped epoch time (depth 4 unless set)",
			flags: []flagGroup{device, pipeline, obsOut}, figure: "figp"},
		{name: "figpart", summary: "executed DDP vs graph-partitioned training: scaling, comm volume, edge-cut sweep (4 GPUs unless set)",
			flags: []flagGroup{device, pipeline, fleet, obsOut}, figure: "figpart"},
		{name: "figf", summary: "goodput under churn: elastic drop-and-reshard vs fail-stop replacement (4 GPUs, ARGA and DGCN unless set)",
			flags: []flagGroup{device, workloadFlags(""), pipeline, fleet, obsOut}, figure: "figf"},
		{name: "serve-bench", summary: "Figure S, inference serving: QPS vs tail latency across micro-batch policies and embedding-cache sizes",
			flags: []flagGroup{device, workloadFlags("PSAGE"), serving, obsOut}, run: runServeBench},
		{name: "scenario", operands: "run|check FILE...", summary: "chaos harness: run executes scenario files and exits non-zero on a failed assertion, check only validates (see scenarios/)",
			run: runScenario},
		{name: "opbench", summary: "per-op microbenchmark sweep over workload shape classes on both backends",
			flags: []flagGroup{seed, opbenchFlags}, run: runOpbench},
		{name: "benchdiff", operands: "OLD.json NEW.json", summary: "noise-aware comparison of two opbench reports",
			flags: []flagGroup{benchdiffFlags}, run: runBenchdiff},
		{name: "infer", summary: "training-vs-inference op-mix contrast", flags: one("ARGA"), figure: "infer"},
		{name: "dnn-contrast", summary: "GNN suite vs conventional-CNN baseline", flags: suite, figure: "dnn-contrast"},
		{name: "ablate-fp16", summary: "half-precision storage ablation", flags: suite, figure: "ablate-fp16"},
		{name: "ablate-l1bypass", summary: "L1 cache bypass ablation", flags: suite, figure: "ablate-l1bypass"},
		{name: "gpucompare", summary: "characterize one workload on P100/V100/A100", flags: one("ARGA"), figure: "gpucompare"},
		{name: "ttt", summary: "MLPerf-style time-to-train", flags: []flagGroup{hardware, workloadFlags("ARGA"), pipeline, tttFlags}, figure: "ttt"},
		{name: "roofline", summary: "per-operation roofline placement", flags: one("ARGA"), figure: "roofline"},
		{name: "kernels", summary: "per-kernel-name time breakdown of one training epoch (the calibration view)", flags: []flagGroup{hardware, workloadFlags("ARGA")}, figure: "kernels"},
		{name: "sweep", summary: "hyperparameter sweep", flags: []flagGroup{device, sweepFlags}, figure: "sweep"},
		{name: "report", summary: "write the full characterization as an HTML page (-trace sets the path)",
			flags: []flagGroup{device, reportOut}, run: runReport},
		{name: "datasets", summary: "structural statistics of every synthetic dataset", flags: []flagGroup{seed}, figure: "datasets"},
		{name: "params", summary: "per-workload parameter and iteration counts", flags: []flagGroup{seed}, figure: "params"},
	}
}

// options is what the flag groups bind into. A command reads only the
// fields of the groups it binds; the rest stay zero.
type options struct {
	cfg   core.RunConfig
	args  []string // operands after the flags
	usage func()   // the command's own usage, for badOperands

	traceOut              string          // traceOut, reportOut
	metricsOut, hostTrace string          // obsOut; main writes them once the command returns,
	rec                   *trace.Recorder // with the device timeline
	lanes                 []stream.Lane   // and the stream lanes `run` leaves here
	sweepKey, sweepVals   string
	smoke                 bool // opbenchFlags and serving
	benchOut, backends    string
	reps                  int
	budget, madK          float64
	warnOnly              bool
	serve                 bench.ServeConfig // serving: Replicas, QPS, Duration, QueueCap
	maxWaitUS             float64
	batches, cacheRows    string
	arrivals              string
}

// flagGroup registers the flags that set one group of option fields.
type flagGroup func(fs *flag.FlagSet, o *options)

func seed(fs *flag.FlagSet, o *options) {
	fs.Int64Var(&o.cfg.Seed, "seed", 1, "random seed")
}

// device binds hardware and -epochs; a command that sets the epoch count
// itself binds hardware alone.
func device(fs *flag.FlagSet, o *options) {
	hardware(fs, o)
	fs.IntVar(&o.cfg.Epochs, "epochs", 3, "training epochs per workload")
}

func hardware(fs *flag.FlagSet, o *options) {
	seed(fs, o)
	fs.IntVar(&o.cfg.SampledWarps, "warps", 4096, "max sampled warps per kernel (model fidelity/speed)")
	fs.StringVar(&o.cfg.GPU, "gpu", "v100", "device preset: v100, p100, a100, h100")
	fs.StringVar(&o.cfg.Backend, "backend", "serial", "CPU numerics backend: serial or parallel (identical results; parallel is faster on large workloads)")
	fs.Float64Var(&o.cfg.HBMGB, "hbm-gb", 0, "simulated device-memory budget in GiB (0 = GPU preset capacity; too small fails with a simulated OOM report)")
}

func pipeline(fs *flag.FlagSet, o *options) {
	fs.IntVar(&o.cfg.PipelineDepth, "pipeline-depth", 0, "asynchronous input pipeline prefetch depth (0 = synchronous loading; numerics are identical either way)")
	fs.IntVar(&o.cfg.LoaderWorkers, "loader-workers", 0, "input-loader worker goroutines (0 = default; affects host scheduling only)")
	fs.BoolVar(&o.cfg.CompressH2D, "compress-h2d", false, "time H2D copies on sparsity-encoded bytes (zero-run/bitmap codec); requires -pipeline-depth > 0")
}

func fleet(fs *flag.FlagSet, o *options) {
	fs.IntVar(&o.cfg.GPUs, "gpus", 1, "simulated GPU count (run: >1 trains replicas with bucketed ring-allreduce; figpart, figf: the fleet, 1 = the study's own 4)")
}

func runPlane(fs *flag.FlagSet, o *options) {
	planes := core.Parallelisms()
	fs.StringVar(&o.cfg.Parallelism, "parallelism", planes[0], fmt.Sprintf("multi-GPU execution plane: %s (the graph-partitioned plane, one partition per GPU with halo exchange, trains %s only)",
		strings.Join(planes, " or "), strings.Join(core.PartitionedWorkloads(), " and ")))
	fs.BoolVar(&o.cfg.Overlap, "overlap", true, "overlap halo exchange with interior compute (partitioned plane; false serializes every exchange)")
}

// workloadFlags binds -workload with the command's own default.
func workloadFlags(def string) flagGroup {
	return func(fs *flag.FlagSet, o *options) {
		fs.StringVar(&o.cfg.Workload, "workload", def, "workload key")
		fs.StringVar(&o.cfg.Dataset, "dataset", "", "dataset name (empty = the workload's default)")
	}
}

func traceOut(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.traceOut, "trace", "", "write a chrome://tracing timeline to this file")
}

// reportOut binds report's -trace: the same name, but the page's path.
func reportOut(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.traceOut, "trace", "gnnmark-report.html", "write the HTML page to this file")
}

func obsOut(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the host-observability metrics snapshot (JSON) to this file")
	fs.StringVar(&o.hostTrace, "host-trace", "", "write a merged host+device chrome://tracing timeline to this file")
}

func tttFlags(fs *flag.FlagSet, o *options) {
	fs.Float64Var(&o.cfg.TargetLoss, "target", 0.5, "loss target")
	fs.IntVar(&o.cfg.Epochs, "max-epochs", 50, "epoch cutoff")
}

func sweepFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.sweepKey, "sweep", "DGCN/layers", "sweep key: WORKLOAD/param")
	fs.StringVar(&o.sweepVals, "values", "4,14,28", "comma-separated sweep values")
}

func opbenchFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.benchOut, "out", "BENCH_opbench.json", "output path for the opbench report")
	fs.BoolVar(&o.smoke, "smoke", false, "reduced CI sweep")
	fs.IntVar(&o.reps, "reps", 0, "timed repetitions per measurement (0 = default plan)")
	fs.StringVar(&o.backends, "backends", "", "comma-separated backend names (empty = all)")
}

func benchdiffFlags(fs *flag.FlagSet, o *options) {
	fs.Float64Var(&o.budget, "budget", 1.10, "regression budget as a median ratio (1.10 = fail beyond +10%)")
	fs.Float64Var(&o.madK, "mad-k", 4, "significance bar in combined MADs")
	fs.BoolVar(&o.warnOnly, "warn-only", false, "report regressions without failing (coverage/schema drift still fails)")
}

func serving(fs *flag.FlagSet, o *options) {
	fs.IntVar(&o.serve.Replicas, "replicas", 2, "frozen-replica count, one simulated device each")
	fs.Float64Var(&o.serve.QPS, "serve-qps", 0, "offered open-loop arrival rate (0 = 4x the measured batch-1 capacity)")
	fs.Float64Var(&o.serve.Duration, "serve-duration", 0, "arrival-trace horizon in simulated seconds (0 = 400 batch-1 service times)")
	fs.Float64Var(&o.maxWaitUS, "max-wait-us", 0, "micro-batching window in microseconds (0 = one batch-1 service time)")
	fs.IntVar(&o.serve.QueueCap, "queue-cap", 64, "admission-queue bound; arrivals beyond it are rejected (negative = unbounded)")
	fs.StringVar(&o.batches, "batches", "1,4,16", "comma-separated MaxBatch policy arms")
	fs.StringVar(&o.cacheRows, "cache-rows", "0,1024", "comma-separated embedding-cache sizes in rows (0 = no cache)")
	fs.StringVar(&o.arrivals, "arrivals", "", "replay this arrival-trace file (\"<timestamp_us> <item>\" lines) instead of generating one")
	fs.BoolVar(&o.smoke, "smoke", false, "single low-load arm asserting nonzero QPS and zero rejects")
}

// flagSet builds c's flag set over o: the flags of its groups, and a usage
// that is c's own (an undefined flag prints it after naming the flag).
func (c *command) flagSet(o *options, onError flag.ErrorHandling) *flag.FlagSet {
	fs := flag.NewFlagSet(c.name, onError)
	for _, group := range c.flags {
		group(fs, o)
	}
	fs.Usage = func() {
		w := fs.Output()
		line := "usage: gnnmark " + c.name
		if len(c.flags) > 0 {
			line += " [flags]"
		}
		fmt.Fprintf(w, "%s\n  %s\n", strings.TrimSpace(line+" "+c.operands), c.summary)
		if len(c.flags) > 0 {
			fmt.Fprintln(w, "flags:")
			fs.PrintDefaults()
		}
	}
	return fs
}

func main() {
	i := -1
	if len(os.Args) > 1 {
		i = slices.IndexFunc(commands, func(c command) bool { return c.name == os.Args[1] })
	}
	if i < 0 {
		usage()
		os.Exit(2)
	}
	c, o := &commands[i], &options{}
	fs := c.flagSet(o, flag.ExitOnError)
	fs.Parse(os.Args[2:]) // ExitOnError: exits 0 on -h, 2 on a bad flag
	o.args, o.usage = fs.Args(), fs.Usage
	// Only the commands that bind obsOut can switch the measurement on, and
	// each of them gets its files written.
	if o.metricsOut != "" || o.hostTrace != "" {
		obs.Enable()
	}
	if c.figure != "" {
		study := bench.Study{RunConfig: o.cfg, Sweep: o.sweepKey, Values: parseInts(o.sweepVals)}
		fmt.Print(must(study.Figure(c.figure)).Text())
	} else {
		c.run(o)
	}
	o.writeObsOutputs()
}

// usage prints the command list.
func usage() {
	fmt.Fprintln(os.Stderr, "usage: gnnmark <command> [flags]\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(os.Stderr, "`gnnmark <command> -h` lists the flags that command takes; any other flag is an error.")
}

// badOperands prints the command's usage and exits 2, like a bad flag does.
func (o *options) badOperands() {
	o.usage()
	os.Exit(2)
}

// must unwraps a (value, error) pair through fail.
func must[T any](v T, err error) T {
	fail(err)
	return v
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gnnmark:", err)
		os.Exit(1)
	}
}
