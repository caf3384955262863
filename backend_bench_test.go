package gnnmark

import (
	"testing"

	"gnnmark/internal/backend"
	"gnnmark/internal/opbench"
)

// Serial-vs-parallel backend benchmarks over the opbench shape classes: the
// exact case definitions `gnnmark opbench` sweeps (internal/opbench/shapes.go),
// so `go test -bench BackendOps` sub-benchmark names line up with
// BENCH_opbench.json result keys and the two views describe identical work.
// Tree-LSTM-sized cases (GEMM/tlstm.gates, ElementWise/tlstm.small) double as
// the small-launch guard: the parallel backend must take its serial fallback
// there and stay within noise of it.

// BenchmarkBackendOps measures every opbench case on every backend.
func BenchmarkBackendOps(b *testing.B) {
	for _, c := range opbench.Cases() {
		for _, name := range backend.Names() {
			be, err := backend.New(name, nil)
			if err != nil {
				b.Fatal(err)
			}
			run := c.Runner(1)
			b.Run(c.Op+"/"+c.Shape+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(c.Bytes)
				for i := 0; i < b.N; i++ {
					run(be)
				}
			})
		}
	}
}

// BenchmarkBackendSmoke measures only the smoke subset — the cases the CI
// perf gate re-measures every push.
func BenchmarkBackendSmoke(b *testing.B) {
	for _, c := range opbench.SmokeCases() {
		for _, name := range backend.Names() {
			be, err := backend.New(name, nil)
			if err != nil {
				b.Fatal(err)
			}
			run := c.Runner(1)
			b.Run(c.Op+"/"+c.Shape+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(c.Bytes)
				for i := 0; i < b.N; i++ {
					run(be)
				}
			})
		}
	}
}
