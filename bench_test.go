package gnnmark

import (
	"os"
	"strings"
	"sync"
	"testing"

	"gnnmark/internal/core"
)

// The repository-level benchmarks regenerate every table and figure of the
// paper's evaluation. The suite characterization is shared across figure
// benchmarks (one full training sweep feeds Figures 2-8, exactly as one
// profiled run did in the paper); BenchmarkCharacterizeSuite measures that
// sweep itself, and BenchmarkFig9 the multi-GPU study.

var (
	benchOnce  sync.Once
	benchSuite *Suite
	benchErr   error
)

// benchCfg is the shared benchmark configuration. GNNMARK_BACKEND=parallel
// switches the numerics backend (results are identical; see
// internal/backend) so the suite benchmarks can be compared across backends
// without editing code.
func benchCfg() core.RunConfig {
	return core.RunConfig{Epochs: 1, Seed: 1, SampledWarps: 512, Backend: os.Getenv("GNNMARK_BACKEND")}
}

func sharedSuite(b *testing.B) *Suite {
	b.Helper()
	benchOnce.Do(func() { benchSuite, benchErr = Characterize(benchCfg()) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

func requireText(b *testing.B, text string, frags ...string) {
	b.Helper()
	for _, f := range frags {
		if !strings.Contains(text, f) {
			b.Fatalf("output missing %q", f)
		}
	}
}

// BenchmarkCharacterizeSuite measures the full-suite characterization sweep
// that feeds Figures 2-8: training every workload on the simulated V100
// with the profiler attached.
func BenchmarkCharacterizeSuite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the suite inventory (Table I).
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		requireText(b, Table1(), "PinSAGE", "Tree-LSTM", "PROTEINS")
	}
}

// BenchmarkFigures regenerates Figures 2-8 from the shared suite, one
// sub-benchmark per figure id (BenchmarkFigures/fig2 ...).
func BenchmarkFigures(b *testing.B) {
	s := sharedSuite(b)
	for _, fig := range []struct {
		id    string
		frags []string
	}{
		{"fig2", []string{"GEMM", "ElementWise", "PSAGE(MVL)"}},
		{"fig3", []string{"int32", "fp32", "average"}},
		{"fig4", []string{"GFLOPS", "IPC"}},
		{"fig5", []string{"memdep", "ifetch", "per-operation"}},
		{"fig6", []string{"L1", "divergent"}},
		{"fig7", []string{"sparsity", "est.compr"}},
		{"fig8", []string{"iterations"}},
	} {
		b.Run(fig.id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, f := range s.Figures() {
					if f.ID == fig.id {
						requireText(b, f.Text(), fig.frags...)
					}
				}
			}
		})
	}
}

// BenchmarkFig9 regenerates the multi-GPU strong-scaling study (Figure 9):
// each iteration re-runs the 7-workload x {1,2,4}-GPU DDP simulation.
func BenchmarkFig9(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Fig9(core.RunConfig{Seed: 1, SampledWarps: 512})
		if err != nil {
			b.Fatal(err)
		}
		requireText(b, FormatFig9(res), "PSAGE", "replicated", "ARGA excluded")
	}
}

// BenchmarkWorkloadEpoch measures one training epoch of each workload on
// the simulated device (the per-workload cost behind the figures).
func BenchmarkWorkloadEpoch(b *testing.B) {
	for _, sr := range core.DefaultSuite() {
		sr := sr
		label := sr.Workload
		if sr.Workload == "PSAGE" {
			label = sr.Workload + "_" + sr.Dataset
		}
		b.Run(label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := benchCfg()
				cfg.Workload, cfg.Dataset = sr.Workload, sr.Dataset
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
