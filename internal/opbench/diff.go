package opbench

import (
	"fmt"
	"math"
	"strings"
)

// DiffConfig tunes the noise-aware comparison.
type DiffConfig struct {
	// Budget is the median-ratio regression threshold: a significant
	// slowdown with new/old above it is a regression; a significant
	// speedup below 1/Budget is an improvement (default 1.10 = 10%).
	Budget float64
	// MADK scales the noise bar: a delta is significant only when
	// |new - old| medians exceed MADK * (old MAD + new MAD). Re-measured
	// runs on the same machine jitter within a few MADs, so the default
	// of 4 keeps honest noise quiet while a real 2x slowdown (orders of
	// magnitude beyond the MADs) is flagged (default 4).
	MADK float64
}

// minDeltaNs is an absolute floor under which deltas are never significant,
// guarding against zero-MAD flukes on sub-microsecond kernels.
const minDeltaNs = 200

func (c *DiffConfig) defaults() {
	if c.Budget == 0 {
		c.Budget = 1.10
	}
	if c.MADK == 0 {
		c.MADK = 4
	}
}

// Verdict classifies one compared measurement.
type Verdict string

const (
	// VerdictUnchanged means the delta is within the noise bar or budget.
	VerdictUnchanged Verdict = "~"
	// VerdictRegression means a significant slowdown beyond the budget.
	VerdictRegression Verdict = "REGRESSION"
	// VerdictImprovement means a significant speedup beyond the budget.
	VerdictImprovement Verdict = "improvement"
)

// Row is one matched (op, shape, backend) comparison.
type Row struct {
	Op, Shape, Backend string
	OldMedianNs        int64
	NewMedianNs        int64
	Ratio              float64
	Significant        bool
	Verdict            Verdict
}

// Diff is the outcome of comparing two reports.
type Diff struct {
	Old, New *Report
	Rows     []Row
	// Missing lists result keys the comparison scope expects in New but
	// does not find: shape-coverage drift, always a hard failure. When
	// New is a smoke report, the scope is Old's smoke-marked results;
	// otherwise it is all of Old's results.
	Missing []string
	// Added lists keys present only in New (new shapes; informational).
	Added        []string
	Regressions  int
	Improvements int
}

// Compare matches new against old result by result and classifies every
// delta. It returns an error on schema mismatch (reports from different
// format generations are not comparable).
func Compare(old, new *Report, cfg DiffConfig) (*Diff, error) {
	cfg.defaults()
	if old.Schema != new.Schema {
		return nil, fmt.Errorf("opbench: schema mismatch: old %q vs new %q (regenerate the baseline)",
			old.Schema, new.Schema)
	}
	type bk struct{ key, be string }
	newIdx := make(map[bk]Result, len(new.Results))
	for _, r := range new.Results {
		newIdx[bk{r.Key(), r.Backend}] = r
	}
	oldSeen := make(map[bk]bool, len(old.Results))

	d := &Diff{Old: old, New: new}
	for _, o := range old.Results {
		k := bk{o.Key(), o.Backend}
		oldSeen[k] = true
		n, ok := newIdx[k]
		if !ok {
			// A full new report must cover everything the baseline
			// covers; a smoke new report must cover the baseline's
			// smoke subset.
			if !new.Smoke || o.Smoke {
				d.Missing = append(d.Missing, k.key+"/"+k.be)
			}
			continue
		}
		row := Row{
			Op: o.Op, Shape: o.Shape, Backend: o.Backend,
			OldMedianNs: o.MedianNs, NewMedianNs: n.MedianNs,
			Verdict: VerdictUnchanged,
		}
		if o.MedianNs > 0 {
			row.Ratio = float64(n.MedianNs) / float64(o.MedianNs)
		}
		delta := math.Abs(float64(n.MedianNs - o.MedianNs))
		noise := cfg.MADK * float64(o.MADNs+n.MADNs)
		row.Significant = delta > noise && delta > minDeltaNs
		if row.Significant && o.MedianNs > 0 {
			switch {
			case row.Ratio >= cfg.Budget:
				row.Verdict = VerdictRegression
				d.Regressions++
			case row.Ratio <= 1/cfg.Budget:
				row.Verdict = VerdictImprovement
				d.Improvements++
			}
		}
		d.Rows = append(d.Rows, row)
	}
	for _, n := range new.Results {
		if !oldSeen[bk{n.Key(), n.Backend}] {
			d.Added = append(d.Added, n.Key()+"/"+n.Backend)
		}
	}
	return d, nil
}

// CoverageDrift reports whether the new report is missing shapes the
// comparison scope requires — a structural failure independent of timing.
func (d *Diff) CoverageDrift() bool { return len(d.Missing) > 0 }

// Markdown renders the benchstat-style comparison table plus the coverage
// and verdict summary.
func (d *Diff) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## opbench diff (%d measurements", len(d.Rows))
	if d.Old.Env != d.New.Env {
		sb.WriteString(", env changed")
	}
	sb.WriteString(")\n\n")
	fmt.Fprintf(&sb, "old: go %s, GOMAXPROCS %d, dense kernel %s, rev %s\n", d.Old.Env.GoVersion, d.Old.Env.GOMAXPROCS, kernelName(d.Old.Env.DenseKernel), shortRev(d.Old.Env.GitRev))
	fmt.Fprintf(&sb, "new: go %s, GOMAXPROCS %d, dense kernel %s, rev %s\n", d.New.Env.GoVersion, d.New.Env.GOMAXPROCS, kernelName(d.New.Env.DenseKernel), shortRev(d.New.Env.GitRev))
	if d.Old.Env.DenseKernel != d.New.Env.DenseKernel {
		sb.WriteString("dense kernels differ: the GEMM and Conv rows compare kernel bodies, not revisions\n")
	}
	sb.WriteString("\n")
	sb.WriteString("| op | shape | backend | old median | new median | delta | verdict |\n")
	sb.WriteString("|---|---|---|---:|---:|---:|---|\n")
	for _, r := range d.Rows {
		delta := "~"
		if r.OldMedianNs > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(r.Ratio-1))
			if !r.Significant {
				delta += " (noise)"
			}
		}
		verdict := string(r.Verdict)
		if r.Verdict == VerdictUnchanged {
			verdict = ""
		}
		fmt.Fprintf(&sb, "| %s | %s | %s | %s | %s | %s | %s |\n",
			r.Op, r.Shape, r.Backend, fmtNs(r.OldMedianNs), fmtNs(r.NewMedianNs), delta, verdict)
	}
	sb.WriteString("\n")
	if len(d.Missing) > 0 {
		fmt.Fprintf(&sb, "MISSING coverage (%d): %s\n", len(d.Missing), strings.Join(d.Missing, ", "))
	}
	if len(d.Added) > 0 {
		fmt.Fprintf(&sb, "added shapes (%d): %s\n", len(d.Added), strings.Join(d.Added, ", "))
	}
	fmt.Fprintf(&sb, "summary: %d regression(s), %d improvement(s), %d unchanged\n",
		d.Regressions, d.Improvements, len(d.Rows)-d.Regressions-d.Improvements)
	return sb.String()
}

// kernelName renders EnvInfo.DenseKernel, which older reports lack.
func kernelName(k string) string {
	if k == "" {
		return "unrecorded"
	}
	return k
}

// shortRev truncates a git revision for display.
func shortRev(rev string) string {
	if len(rev) > 12 {
		return rev[:12]
	}
	return rev
}
