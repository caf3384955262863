package opbench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"gnnmark/internal/backend"
)

// Schema is the BENCH_opbench.json format version. benchdiff refuses to
// compare reports with mismatched schemas (a hard failure, not a warning),
// so bumping this forces a fresh baseline.
const Schema = "gnnmark-opbench/v1"

// Config drives one sweep. The zero value runs the full sweep with the
// default repetition plan on both backends.
type Config struct {
	// Backends lists backend names to sweep (default: all registered).
	Backends []string
	// Reps is the number of timed repetitions per (case, backend); the
	// robust statistics are computed over these (default 7, smoke 5).
	Reps int
	// Warmup is the number of untimed runs before measurement (default 2).
	Warmup int
	// TargetWork sets the deterministic inner-iteration count: each timed
	// repetition runs ceil(TargetWork / (Flops+Bytes)) back-to-back
	// iterations, so cheap kernels amortize clock granularity while the
	// count stays a pure function of the case (default 16Mi work units).
	// Smoke runs keep the full TargetWork: per-iteration medians must be
	// comparable across the two sweeps (benchdiff matches a smoke run
	// against a full baseline), and shrinking the inner-iteration count
	// shifts the measured steady state, which reads as a phantom slowdown.
	TargetWork int64
	// Smoke selects the reduced CI sweep: the smoke-marked case subset and
	// fewer repetitions, with an unchanged per-measurement plan.
	Smoke bool
	// Seed drives input materialization (default 1).
	Seed int64
	// Logf, when non-nil, receives one progress line per result.
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if len(c.Backends) == 0 {
		c.Backends = backend.Names()
	}
	if c.Reps == 0 {
		if c.Smoke {
			c.Reps = 5
		} else {
			c.Reps = 7
		}
	}
	if c.Warmup == 0 {
		c.Warmup = 2
	}
	if c.TargetWork == 0 {
		c.TargetWork = 16 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// EnvInfo fingerprints the machine and toolchain a report was measured on.
// Trajectory comparisons across different fingerprints are still allowed
// (benchdiff prints both), but same-machine comparisons are the
// interpretable ones.
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GitRev     string `json:"git_rev"`
	// DenseKernel is the body of the backend's GEMM micro-kernels on the
	// measuring host, "avx2" or "portable" (backend.DenseKernel); empty in
	// reports written before it was recorded. The GEMM and Conv rows of two
	// reports that differ here compare kernel bodies, not revisions.
	DenseKernel string `json:"dense_kernel"`
}

// CollectEnv reads the current process's environment fingerprint. The git
// revision comes from the binary's embedded VCS stamp ("unknown" for
// uncommitted or stamp-less builds).
func CollectEnv() EnvInfo {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return EnvInfo{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GitRev:      rev,
		DenseKernel: backend.DenseKernel(),
	}
}

// Result is one (op, shape, backend) measurement. Only the *Ns fields are
// timing-dependent; everything else is a pure function of the case list and
// config, which is what makes reruns byte-stable modulo timing.
type Result struct {
	Op      string `json:"op"`
	Shape   string `json:"shape"`
	Backend string `json:"backend"`
	Smoke   bool   `json:"smoke"`
	Bytes   int64  `json:"bytes"`
	Flops   int64  `json:"flops"`
	// Iters is the deterministic inner-iteration count per repetition.
	Iters int `json:"iters"`
	Reps  int `json:"reps"`
	// Per-iteration wall nanoseconds over the repetitions: the minimum
	// (best case), the median (the robust location benchdiff compares),
	// the median absolute deviation (the noise scale significance is
	// judged against), and the maximum.
	MinNs    int64 `json:"min_ns"`
	MedianNs int64 `json:"median_ns"`
	MADNs    int64 `json:"mad_ns"`
	MaxNs    int64 `json:"max_ns"`
}

// Key is the identity results are matched on across reports: op/shape.
func (r Result) Key() string { return r.Op + "/" + r.Shape }

// GFLOPS returns the median-based floating-point rate (0 for movement ops).
func (r Result) GFLOPS() float64 {
	if r.MedianNs <= 0 || r.Flops <= 0 {
		return 0
	}
	return float64(r.Flops) / float64(r.MedianNs)
}

// GBps returns the median-based working-set bandwidth in GB/s.
func (r Result) GBps() float64 {
	if r.MedianNs <= 0 {
		return 0
	}
	return float64(r.Bytes) / float64(r.MedianNs)
}

// Report is the BENCH_opbench.json artifact: one trajectory point.
type Report struct {
	Schema  string   `json:"schema"`
	Env     EnvInfo  `json:"env"`
	Smoke   bool     `json:"smoke"`
	Reps    int      `json:"reps"`
	Warmup  int      `json:"warmup"`
	Seed    int64    `json:"seed"`
	Results []Result `json:"results"`
}

// itersFor returns the deterministic inner-iteration count for one case.
func itersFor(c Case, targetWork int64) int {
	unit := c.Flops + c.Bytes
	if unit <= 0 {
		unit = 1
	}
	it := targetWork / unit
	if it < 1 {
		it = 1
	}
	if it > 1<<14 {
		it = 1 << 14
	}
	return int(it)
}

// robustStats returns min/median/MAD/max of ns (MAD = median absolute
// deviation around the median, the noise scale benchdiff tests against).
func robustStats(ns []int64) (min, median, mad, max int64) {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	min, max = s[0], s[len(s)-1]
	median = s[len(s)/2]
	dev := make([]int64, len(s))
	for i, v := range s {
		d := v - median
		if d < 0 {
			d = -d
		}
		dev[i] = d
	}
	sort.Slice(dev, func(i, j int) bool { return dev[i] < dev[j] })
	mad = dev[len(dev)/2]
	return min, median, mad, max
}

// Run executes the sweep and returns the report. Results are ordered
// (case definition order) x (configured backend order), so two runs of the
// same config produce identical reports modulo the timing fields.
//
// Repetitions are interleaved round-robin across all measurements rather
// than measured back to back: rep r of every (case, backend) pair runs
// before rep r+1 of any. A transient slowdown (scheduler burst, frequency
// dip, noisy neighbor) then inflates one repetition of many measurements —
// which the median shrugs off — instead of every repetition of one
// measurement, which would shift its median and read as a phantom
// regression in benchdiff.
func Run(cfg Config) (*Report, error) {
	cfg.defaults()
	cases := Cases()
	if cfg.Smoke {
		cases = SmokeCases()
	}
	rep := &Report{
		Schema: Schema,
		Env:    CollectEnv(),
		Smoke:  cfg.Smoke,
		Reps:   cfg.Reps,
		Warmup: cfg.Warmup,
		Seed:   cfg.Seed,
	}
	type meas struct {
		c       Case
		backend backend.Backend
		name    string
		run     func(backend.Backend)
		iters   int
		samples []int64
	}
	var ms []*meas
	for _, c := range cases {
		for _, name := range cfg.Backends {
			be, err := backend.New(name)
			if err != nil {
				return nil, err
			}
			ms = append(ms, &meas{
				c: c, backend: be, name: name,
				run:   c.Runner(cfg.Seed),
				iters: itersFor(c, cfg.TargetWork),
			})
		}
	}
	for w := 0; w < cfg.Warmup; w++ {
		for _, m := range ms {
			m.run(m.backend)
		}
	}
	for r := 0; r < cfg.Reps; r++ {
		for _, m := range ms {
			start := time.Now()
			for i := 0; i < m.iters; i++ {
				m.run(m.backend)
			}
			m.samples = append(m.samples, time.Since(start).Nanoseconds()/int64(m.iters))
		}
	}
	for _, m := range ms {
		min, med, mad, max := robustStats(m.samples)
		res := Result{
			Op: m.c.Op, Shape: m.c.Shape, Backend: m.name, Smoke: m.c.Smoke,
			Bytes: m.c.Bytes, Flops: m.c.Flops,
			Iters: m.iters, Reps: cfg.Reps,
			MinNs: min, MedianNs: med, MADNs: mad, MaxNs: max,
		}
		rep.Results = append(rep.Results, res)
		if cfg.Logf != nil {
			cfg.Logf("%-12s %-28s %-9s median %s  mad %s  %.2f GFLOPS  %.2f GB/s",
				m.c.Op, m.c.Shape, m.name, fmtNs(med), fmtNs(mad), res.GFLOPS(), res.GBps())
		}
	}
	return rep, nil
}

// fmtNs renders a nanosecond count with a human unit.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1_000_000:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// WriteJSON writes the report as indented JSON (the BENCH artifact format).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("opbench: encoding report: %w", err)
	}
	return nil
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("opbench: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a report and validates its schema tag.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("opbench: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("opbench: parsing %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("opbench: %s has schema %q, this binary speaks %q (regenerate the baseline)",
			path, r.Schema, Schema)
	}
	return &r, nil
}
