package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"gnnmark/internal/gpu"
	"gnnmark/internal/tensor"
)

// reportSchema names the layout of the -out file (e2ebench/BENCH_e2e.json).
const reportSchema = "gnnmark-e2ebench/v1"

// metric is one named number with its unit. A metric that is the median of
// several samples also carries how many there were and their range: with 2
// to 12 passes no percentile has ten samples beyond it, so none is reported.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Clock says which of the two clocks the number is on: "host" (noisy,
	// bounded), "sim" (simulated seconds, repeats exactly) or "count".
	Clock string  `json:"clock"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// envInfo is the fingerprint every report row carries.
type envInfo struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GitRev     string `json:"git_rev"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Smoke      bool   `json:"smoke,omitempty"`
}

// row is one workload's result in one mode (untraced or traced).
type row struct {
	Workload string   `json:"workload"`
	Traced   bool     `json:"traced"`
	Env      envInfo  `json:"env"`
	Passes   int      `json:"timed_passes"`
	Digest   string   `json:"sim_digest"`
	Checks   int      `json:"checks_attempted"`
	Failed   int      `json:"checks_failed"`
	Failures []string `json:"failures,omitempty"`
	Metrics  []metric `json:"metrics"`
	Notes    []string `json:"notes,omitempty"`
}

// report is the ledger file: one row per (workload, mode), newest kept.
type report struct {
	Schema string `json:"schema"`
	Rows   []row  `json:"rows"`
}

// checks counts the output checks a run attempted and failed; both feed
// fail_ratio, the result line and the exit code.
type checks struct {
	attempted int
	failed    int
	failures  []string
}

// expect records one check. A failed check keeps its message (the first 32).
func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < 32 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// samples collects the per-pass values of one metric.
type samples []float64

func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// metric turns the samples into a median with n, min and max.
func (s samples) metric(name, unit, clock string) metric {
	m := metric{Name: name, Unit: unit, Clock: clock, Value: s.median(), N: len(s)}
	if len(s) > 0 {
		m.Min, m.Max = s[0], s[0]
		for _, v := range s {
			m.Min = math.Min(m.Min, v)
			m.Max = math.Max(m.Max, v)
		}
	}
	return m
}

func hostMetric(name, unit string, v float64) metric {
	return metric{Name: name, Unit: unit, Value: v, Clock: "host"}
}

func simMetric(name, unit string, v float64) metric {
	return metric{Name: name, Unit: unit, Value: v, Clock: "sim"}
}

func countMetric(name, unit string, v float64) metric {
	return metric{Name: name, Unit: unit, Value: v, Clock: "count"}
}

// deviceTotals adds up what the simulated devices of a pass counted.
type deviceTotals struct {
	kernels, h2dBytes     uint64
	vmemAllocs, vmemReuse uint64
	vmemPeak              int64
}

// addDevice adds dev's kernel count and allocator statistics.
func (d *deviceTotals) addDevice(dev *gpu.Device) {
	ms := dev.MemStats()
	d.kernels += dev.KernelCount()
	d.vmemAllocs += ms.Allocs
	d.vmemReuse += ms.ReuseHits
	d.vmemPeak = max(d.vmemPeak, ms.PeakLive)
}

// merge adds another pass part's totals.
func (d *deviceTotals) merge(o deviceTotals) {
	d.kernels += o.kernels
	d.h2dBytes += o.h2dBytes
	d.vmemAllocs += o.vmemAllocs
	d.vmemReuse += o.vmemReuse
	d.vmemPeak = max(d.vmemPeak, o.vmemPeak)
}

// countH2D subscribes to dev's transfers and adds host-to-device bytes.
func (d *deviceTotals) countH2D(dev *gpu.Device) {
	dev.SubscribeTransfers(func(ts gpu.TransferStats) {
		if ts.HostToDevice {
			d.h2dBytes += ts.Bytes
		}
	})
}

// commonLayerMetrics are the per-layer metrics every workload produces, the
// ones BENCHMARK.json declares: device counts of the untraced pass, host time
// per simulated kernel against the untraced wall ref, and the tensor pool's
// traffic between the two snapshots.
func commonLayerMetrics(d deviceTotals, ref time.Duration, pool0, pool1 tensor.PoolStats) []metric {
	gets := float64(pool1.Gets - pool0.Gets)
	return []metric{
		countMetric("gpu.kernels", "count", float64(d.kernels)),
		hostMetric("gpu.host_us_per_kernel", "us", ratio(ref.Seconds()*1e6, float64(d.kernels))),
		countMetric("gpu.h2d_mb", "MB", float64(d.h2dBytes)/1e6),
		countMetric("vmem.allocs", "count", float64(d.vmemAllocs)),
		countMetric("vmem.reuse_ratio", "ratio", ratio(float64(d.vmemReuse), float64(d.vmemAllocs))),
		countMetric("vmem.peak_mb", "MB", float64(d.vmemPeak)/1e6),
		countMetric("tensor.pool.gets", "count", gets),
		countMetric("tensor.pool.hit_ratio", "ratio", ratio(float64(pool1.Hits-pool0.Hits), gets)),
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digester builds a sim_digest: sha256 over the exact bits of losses and
// simulated seconds and over kernel counts, so one ulp of drift shows.
type digester struct{ b strings.Builder }

func (d *digester) str(s string) { d.b.WriteString(s); d.b.WriteByte('\n') }
func (d *digester) floats(tag string, v []float64) {
	for i, f := range v {
		fmt.Fprintf(&d.b, "%s %d %s\n", tag, i, strconv.FormatFloat(f, 'x', -1, 64))
	}
}
func (d *digester) uint(tag string, v uint64) { fmt.Fprintf(&d.b, "%s %d\n", tag, v) }
func (d *digester) sum() string {
	s := sha256.Sum256([]byte(d.b.String()))
	return hex.EncodeToString(s[:])
}

func allFinite(v []float64) bool {
	for _, f := range v {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// fingerprint describes the machine and inputs of this run.
func fingerprint(o options) envInfo {
	rev := "unknown"
	// Best effort: a driver checkout is not a git repository.
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return envInfo{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GitRev: rev, Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
	}
}

// printRow prints every metric by name with its unit, then the checks.
func printRow(w io.Writer, r row) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %d timed passes, GOMAXPROCS %d)\n",
		r.Workload, mode, r.Env.Seed, r.Passes, r.Env.GOMAXPROCS)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-36s %16.6g %-8s [%s]", m.Name, m.Value, m.Unit, m.Clock)
		if m.N > 0 {
			fmt.Fprintf(w, "  n=%d min=%.6g max=%.6g", m.N, m.Min, m.Max)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-36s %16.6g %-8s  (%d of %d checks failed)\n", "fail_ratio",
		ratio(float64(r.Failed), float64(r.Checks)), "ratio", r.Failed, r.Checks)
	fmt.Fprintf(w, "%-36s %s\n", "sim_digest", r.Digest)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", f)
	}
}

// resultLine is the last line of standard output: the contract with the
// driver that runs BENCHMARK.json. names selects and orders the metrics.
func resultLine(r row, names []benchMetric) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := map[string]metric{}
	for _, m := range r.Metrics {
		byName[m.Name] = m
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Checks, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, bm := range names {
		m, ok := byName[bm.Name]
		if !ok {
			return "", fmt.Errorf("workload %s did not produce %s, which BENCHMARK.json lists", r.Workload, bm.Name)
		}
		if m.Unit != bm.Unit {
			return "", fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, m.Unit, bm.Unit)
		}
		out.Metrics[m.Name] = mv{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// mergeReport writes rows into the ledger at path, replacing rows of the
// same workload and mode and keeping the others, so an untraced and a
// traced run accumulate into one file.
func mergeReport(path string, rows []row) error {
	rep := report{Schema: reportSchema}
	if data, err := os.ReadFile(path); err == nil {
		var old report
		if json.Unmarshal(data, &old) == nil && old.Schema == reportSchema {
			rep = old
		}
	}
	for _, r := range rows {
		replaced := false
		for i := range rep.Rows {
			if rep.Rows[i].Workload == r.Workload && rep.Rows[i].Traced == r.Traced {
				rep.Rows[i], replaced = r, true
			}
		}
		if !replaced {
			rep.Rows = append(rep.Rows, r)
		}
	}
	sort.SliceStable(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].Traced != rep.Rows[j].Traced {
			return !rep.Rows[i].Traced
		}
		return workloadIndex(rep.Rows[i].Workload) < workloadIndex(rep.Rows[j].Workload)
	})
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
