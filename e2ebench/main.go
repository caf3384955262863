// Command e2ebench is the repository's end-to-end benchmark: the host-time
// ledger every later performance claim is measured with. It drives the
// system through its public functions only, runs four workloads that stress
// different layers, checks their outputs, and prints every metric by name
// with its unit. See README.md in this directory.
//
// Two clocks, always labelled: host seconds are what a user waits for (noisy,
// bounded in BENCHMARK.json); simulated seconds are what the modelled GPU
// would take (they repeat exactly for a seed, so any movement is real).
//
//	go run ./e2ebench                         all four workloads, untraced
//	go run ./e2ebench -trace 1                the per-layer pass of each
//	go run ./e2ebench -workload train_small   one workload, in this process
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// options are the command-line inputs. seed is the only one that shapes the
// generated datasets, the arrival trace and the scenario seeds.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	out      string
	spansOut string
	// injectBadDigest corrupts the reference digest: the test hook that
	// shows a failed check reaches fail_ratio and the exit code.
	injectBadDigest bool
}

// passOut is what one pass of a workload's fixed work list produced.
type passOut struct {
	setup  time.Duration // building what the pass trains or serves
	wall   time.Duration // the pass itself, set-up excluded
	sim    float64       // simulated seconds summed over the pass
	digest string        // exact-bits digest of the simulated outputs
	// exact are simulated numbers of the pass that repeat exactly.
	exact []metric
}

// bench is one workload: a pass that is rebuilt from the seed every time, so
// every timed pass does bit-identical arithmetic, and a traced pass.
type bench struct {
	name string
	// pass runs one untraced pass, counting its output checks into ck.
	pass func(ck *checks) (passOut, error)
	// layers runs the per-layer passes after a plain warm-up pass and
	// returns the per-layer metrics and notes.
	layers func(ck *checks, tr *tracer, plain passOut) ([]metric, []string, error)
	// onceChecks are output checks made once per run, outside any pass.
	onceChecks func(ck *checks) error
	// setupOnly, when non-nil, repeats the pass's set-up alone. Workloads
	// whose set-up is milliseconds and whose passes are few use it to give
	// setup_s enough samples for a steady median.
	setupOnly func() (time.Duration, error)
}

// workloadNames is the run order; it is also the report's row order.
var workloadNames = []string{"train_dense", "train_small", "fleet_scenarios", "serve_infer"}

func workloadIndex(name string) int {
	for i, n := range workloadNames {
		if n == name {
			return i
		}
	}
	return len(workloadNames)
}

func newBench(o options) (*bench, error) {
	switch o.workload {
	case "train_dense":
		return newTrainBench(o, o.workload, denseRuns(o)), nil
	case "train_small":
		return newTrainBench(o, o.workload, smallRuns(o)), nil
	case "fleet_scenarios":
		return newFleetBench(o)
	case "serve_infer":
		return newServeBench(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
}

// benchMetric is one metric declaration of BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// benchFilePath and scenarioDir are relative to the repository root, which
// is where e2ebench runs from.
const (
	benchFilePath = "BENCHMARK.json"
	scenarioDir   = "e2ebench/scenarios"
)

func loadBenchFile() (benchFile, error) {
	var bf benchFile
	data, err := os.ReadFile(benchFilePath)
	if err != nil {
		return bf, fmt.Errorf("e2ebench runs from the repository root: %w", err)
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", benchFilePath, err)
	}
	return bf, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	code, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func parseFlags(args []string, errOut io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process: "+strings.Join(workloadNames, ", ")+" (default: all, each in a fresh child process)")
	fs.Int64Var(&o.seed, "seed", 1, "the only input that shapes datasets, arrival trace and scenario seeds")
	fs.IntVar(&o.seconds, "seconds", 20, "host seconds of timed passes per workload")
	trace := fs.Int("trace", 0, "1 runs the separate per-layer pass instead of the timed passes")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny work lists (KGNNL only, one scenario, 200 requests) for the package test")
	fs.StringVar(&o.out, "out", "", "merge this run's rows into the JSON ledger `file`")
	fs.StringVar(&o.spansOut, "spans-out", "", "with -trace 1 and -workload, dump the recorded spans to `file`")
	fs.BoolVar(&o.injectBadDigest, "inject-bad-digest", false, "corrupt the reference digest of the timed passes (test hook)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(errOut, "e2ebench: unexpected argument %q\n", fs.Arg(0))
		return o, errors.New("unexpected argument")
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(errOut, "e2ebench: -trace takes 0 or 1")
		return o, errors.New("bad -trace")
	}
	o.trace = *trace == 1
	if o.seed == 0 {
		// core.RunConfig and the scenario executor read seed 0 as 1; do the
		// same here so the harness and the program agree on the inputs.
		o.seed = 1
	}
	if o.seconds < 1 {
		fmt.Fprintln(errOut, "e2ebench: -seconds must be at least 1")
		return o, errors.New("bad -seconds")
	}
	return o, nil
}

// run returns the exit code: 0 only when every check of every workload held.
func run(o options, w io.Writer) (int, error) {
	bf, err := loadBenchFile()
	if err != nil {
		return 1, err
	}
	if o.workload == "" {
		return runAll(o, w)
	}
	r, err := runWorkload(o)
	if err != nil {
		return 1, err
	}
	printRow(w, r)
	if o.out != "" {
		if err := mergeReport(o.out, []row{r}); err != nil {
			return 1, err
		}
	}
	names := bf.EndToEnd
	if o.trace {
		names = bf.PerLayer
	}
	line, err := resultLine(r, names)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(w, line)
	if r.Failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// childRunning guards the rule that workloads never overlap: the parent
// refuses to start a second child while one is running.
var childRunning atomic.Bool

// runAll re-executes this binary once per workload, sequentially. A fresh
// process per workload keeps host_peak_mb per workload and keeps one
// workload's process-global state (the obs registry scenario.Execute turns
// on, tensor pools, the backend's worker pool, heap size) out of the next.
func runAll(o options, w io.Writer) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 1, err
	}
	code, trace := 0, "0"
	if o.trace {
		trace = "1"
	}
	for _, name := range workloadNames {
		args := []string{
			"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", trace,
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		if o.out != "" {
			args = append(args, "-out", o.out)
		}
		if o.injectBadDigest {
			args = append(args, "-inject-bad-digest")
		}
		if err := runChild(exe, args, w); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				return 1, fmt.Errorf("workload %s: %w", name, err)
			}
			code = 1
		}
	}
	return code, nil
}

func runChild(exe string, args []string, w io.Writer) error {
	if !childRunning.CompareAndSwap(false, true) {
		return errors.New("a workload child is already running; workloads never overlap")
	}
	defer childRunning.Store(false)
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = w, os.Stderr
	return cmd.Run()
}

// minSetupSamples is how many set-ups a run times at least.
const minSetupSamples = 15

// timedPasses sizes the timed part of a run from the warm-up pass: as many
// passes as fit in the requested seconds, never fewer than two.
func timedPasses(warm time.Duration, seconds int) int {
	n := int(float64(seconds)/warm.Seconds() + 0.5)
	if n < 2 {
		n = 2
	}
	if n > 64 {
		n = 64
	}
	return n
}

// runWorkload measures one workload in this process.
func runWorkload(o options) (row, error) {
	b, err := newBench(o)
	if err != nil {
		return row{}, err
	}
	r := row{Workload: b.name, Traced: o.trace, Env: fingerprint(o)}
	ck := &checks{}

	// The warm-up pass fills caches and grows the heap; its digest is the
	// reference every later pass must reproduce.
	warm, err := b.pass(ck)
	if err != nil {
		return row{}, err
	}
	r.Digest = warm.digest
	ref := warm.digest
	if o.injectBadDigest {
		ref = "injected-" + ref
	}

	if o.trace {
		tr := newTracer()
		ms, notes, err := b.layers(ck, tr, warm)
		if err != nil {
			return row{}, err
		}
		r.Metrics, r.Notes = ms, notes
		if o.spansOut != "" {
			if err := tr.dump(o.spansOut); err != nil {
				return row{}, err
			}
		}
	} else {
		n := timedPasses(warm.setup+warm.wall, o.seconds)
		if o.smoke {
			n = 1
		}
		var setup, wall samples
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			// A user's run is a fresh process: start every pass from a
			// collected heap with free pages returned, so that passes do not
			// inherit each other's garbage.
			debug.FreeOSMemory()
			p, err := b.pass(ck)
			if err != nil {
				return row{}, err
			}
			ck.expect(p.digest == ref, "pass %d digest %s differs from the warm-up pass's %s", i+1, p.digest, ref)
			setup = append(setup, p.setup.Seconds())
			wall = append(wall, p.wall.Seconds())
		}
		runtime.ReadMemStats(&m1)
		for b.setupOnly != nil && len(setup) < minSetupSamples {
			d, err := b.setupOnly()
			if err != nil {
				return row{}, err
			}
			setup = append(setup, d.Seconds())
		}
		if b.onceChecks != nil {
			if err := b.onceChecks(ck); err != nil {
				return row{}, err
			}
		}
		r.Passes = n
		r.Metrics = []metric{
			setup.metric("setup_s", "s", "host"),
			wall.metric("pass_wall_s", "s", "host"),
			countMetric("allocs_per_pass", "count", float64(m1.Mallocs-m0.Mallocs)/float64(n)),
			countMetric("alloc_mb_per_pass", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n)/1e6),
			hostMetric("host_peak_mb", "MB", peakMB()),
			simMetric("sim_pass_s", "s", warm.sim),
		}
		r.Metrics = append(r.Metrics, warm.exact...)
	}
	r.Checks, r.Failed, r.Failures = ck.attempted, ck.failed, ck.failures
	return r, nil
}

// peakMB is the process's resident high-water mark (VmHWM): the largest peak
// of the warm-up and all timed passes, which is steadier than any one pass's
// peak because garbage-collector pacing moves a single peak by a quarter. It
// falls back to the Go runtime's view where /proc is not there.
func peakMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) == 2 && f[1] == "kB" {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb * 1024 / 1e6
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}
