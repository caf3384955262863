// Comm-overlap benchmarks for the partitioned execution plane. These live in
// the external ddp_test package so they can import internal/partitioned
// (which itself imports ddp for the shared interconnect model) without a
// cycle: the two planes share one interconnect model, so their comm efficiency
// belongs in one benchmark ledger.
package ddp_test

import (
	"testing"

	"gnnmark/internal/core"
	"gnnmark/internal/partitioned"
)

// runHalo trains 2-way partitioned ARGA (full citation graph, two halo
// exchanges plus an embedding all-gather per iteration) under one schedule.
func runHalo(b *testing.B, overlap bool) *partitioned.Result {
	b.Helper()
	res, err := core.RunPartitioned(core.RunConfig{
		Workload: "ARGA", GPUs: 2, Epochs: 1,
		Seed: 1, SampledWarps: 256, Overlap: overlap,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// reportHalo publishes the simulated-time metrics BENCH_*.json tracks:
// epoch makespan, communication left exposed on the critical path, and the
// fraction of halo time hidden under compute.
func reportHalo(b *testing.B, res *partitioned.Result) {
	b.ReportMetric(1e3*res.TotalSeconds, "sim-ms/epoch")
	b.ReportMetric(1e3*res.ExposedHaloSeconds, "exposed-comm-ms")
	if res.HaloSeconds > 0 {
		b.ReportMetric(res.OverlappedHaloSeconds/res.HaloSeconds, "comm-overlap-eff")
	}
}

// BenchmarkHaloExchangeSerialized fences every halo copy behind the slowest
// rank's full layer compute: the no-overlap baseline.
func BenchmarkHaloExchangeSerialized(b *testing.B) {
	var res *partitioned.Result
	for i := 0; i < b.N; i++ {
		res = runHalo(b, false)
	}
	reportHalo(b, res)
}

// BenchmarkHaloExchangeOverlapped starts each halo copy at the peers'
// boundary-publish points, hiding transfer time under interior compute.
func BenchmarkHaloExchangeOverlapped(b *testing.B) {
	var res *partitioned.Result
	for i := 0; i < b.N; i++ {
		res = runHalo(b, true)
	}
	reportHalo(b, res)
}
