package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"gnnmark/internal/ddp"
	"gnnmark/internal/fault"
	"gnnmark/internal/gpu"
	"gnnmark/internal/partitioned"
)

// suiteDigest flattens the profile outputs PR 1's bitwise-equivalence
// guarantee covers — losses, per-class kernel times, and instruction
// counts — into an exact string (%x floats, no rounding).
func suiteDigest(results []RunResult) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s/%s losses=[", r.Workload, r.Dataset)
		for _, l := range r.Losses {
			fmt.Fprintf(&b, "%x ", l)
		}
		fmt.Fprintf(&b, "] kernels=%d sec=%x launch=%x\n",
			r.Report.Kernels, r.Report.KernelSeconds, r.Report.LaunchSeconds)
		for _, c := range gpu.AllOpClasses() {
			cs, ok := r.PerClass[c]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "  %-12s sec=%x launch=%x kernels=%d instr=%d flops=%d iops=%d\n",
				c, cs.Seconds, cs.LaunchSeconds, cs.Kernels, cs.Mix.Total(), cs.Flops, cs.Iops)
		}
	}
	return b.String()
}

// TestSuiteGoldenDeterminism runs a short full-suite characterization twice
// under the serial backend and once under the parallel backend, and demands
// identical digests: the suite-level pin of the numerics-backend bitwise
// equivalence that the backend package property-tests at the unit level.
func TestSuiteGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite determinism run is slow")
	}
	run := func(backendName string) string {
		res, err := RunSuite(RunConfig{Epochs: 1, Seed: 7, SampledWarps: 256, Backend: backendName})
		if err != nil {
			t.Fatal(err)
		}
		return suiteDigest(res)
	}
	first := run("serial")
	if again := run("serial"); again != first {
		t.Fatalf("serial suite digest not reproducible:\n%s", firstDiff(first, again))
	}
	if par := run("parallel"); par != first {
		t.Fatalf("parallel backend digest differs from serial:\n%s", firstDiff(first, par))
	}

	// The asynchronous input pipeline reorders *when* copies run on the
	// overlapped timeline, never *what* executes: digests must stay
	// byte-identical with prefetching and H2D compression on.
	piped, err := RunSuite(RunConfig{
		Epochs: 1, Seed: 7, SampledWarps: 256, Backend: "serial",
		PipelineDepth: 4, CompressH2D: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pd := suiteDigest(piped); pd != first {
		t.Fatalf("pipelined suite digest differs from synchronous:\n%s", firstDiff(first, pd))
	}

	// One seeded chaos schedule rides the same pin: a fault-injected
	// elastic run is a pure function of (seed, schedule), so its full
	// outcome — recovery structure, losses, accounting, surviving weights —
	// must replay bitwise and agree across numerics backends.
	chaosRun := func(backendName string) string {
		cfg := chaosCfg()
		cfg.Backend = backendName
		factory := DDPFactory(cfg)
		probe, err := ddp.Train(factory, 2, 1, ddp.ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sched := fault.RandomSchedule(11, fault.ChurnConfig{
			Slots: 2, Horizon: probe.ComputeSeconds * 2, Fatals: 1, Degraded: 2,
		})
		res, err := ddp.RunElastic(factory, 2, cfg.Epochs, ddp.ElasticOptions{Schedule: sched})
		if err != nil {
			t.Fatal(err)
		}
		return chaosDigest(res)
	}
	chaosFirst := chaosRun("serial")
	if again := chaosRun("serial"); again != chaosFirst {
		t.Fatalf("chaos digest not reproducible:\n%s", firstDiff(chaosFirst, again))
	}
	if par := chaosRun("parallel"); par != chaosFirst {
		t.Fatalf("parallel-backend chaos digest differs from serial:\n%s", firstDiff(chaosFirst, par))
	}
}

// chaosDigest flattens a fault-injected elastic run into an exact string:
// the recovery structure, every kept loss, the goodput ledger, and the
// surviving rank-0 weights folded through FNV-1a.
func chaosDigest(res ddp.ElasticResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "recoveries=%d survivors=%v epochs=%d rounds=%d losses=[",
		res.Recoveries, res.Survivors, res.EpochsCompleted, len(res.Rounds))
	for _, l := range res.Losses {
		fmt.Fprintf(&b, "%x ", l)
	}
	fmt.Fprintf(&b, "] useful=%x lost=%x overhead=%x goodput=%x params=%016x\n",
		res.UsefulSeconds, res.LostSeconds, res.OverheadSeconds, res.Goodput,
		paramsHash(res.Replicas[0].Params()))
	return b.String()
}

// partitionedDigest flattens an executed partitioned run into an exact
// string: losses and timings as %x floats, every rank-0 parameter value
// folded through FNV-1a, plus the traffic accounting. Any halo-ordering
// regression (map iteration, racy combine order) shifts the digest.
func partitionedDigest(res *partitioned.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gpus=%d losses=[", res.GPUs)
	for _, l := range res.EpochLosses {
		fmt.Fprintf(&b, "%x ", l)
	}
	fmt.Fprintf(&b, "] secs=[")
	for _, s := range res.EpochSeconds {
		fmt.Fprintf(&b, "%x ", s)
	}
	fmt.Fprintf(&b, "] halo=%d cut=%d grad=%d\n", res.HaloBytes, res.EdgeCut, res.GradBytesPerIt)
	h := fnv.New64a()
	for _, p := range res.Workers[0].Params() {
		for _, v := range p.Value.Data() {
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	fmt.Fprintf(&b, "params=%016x\n", h.Sum64())
	return b.String()
}

// TestPartitionedGoldenDeterminism pins the partitioned plane the same way:
// two identical executed 2-way ARGA runs must produce byte-identical losses,
// simulated timings, and parameter bits.
func TestPartitionedGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("executed partitioned run is slow")
	}
	run := func() string {
		res, err := RunPartitioned(RunConfig{
			Workload: "ARGA", GPUs: 2, Epochs: 1,
			Seed: 7, SampledWarps: 256, Overlap: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return partitionedDigest(res)
	}
	first := run()
	if again := run(); again != first {
		t.Fatalf("partitioned digest not reproducible:\n%s", firstDiff(first, again))
	}
}

// firstDiff returns the first differing line pair for a readable failure.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
