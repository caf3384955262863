package core

import (
	"strings"
	"testing"

	"gnnmark/internal/gpu"
	"gnnmark/internal/obs"
)

func TestRegistryCoversTableI(t *testing.T) {
	want := []string{"PSAGE", "STGCN", "DGCN", "GW", "KGNNL", "KGNNH", "ARGA", "TLSTM"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, k := range want {
		if reg[i].Key != k {
			t.Fatalf("registry[%d] = %s, want %s", i, reg[i].Key, k)
		}
		if reg[i].Model == "" || reg[i].Domain == "" || reg[i].Framework == "" {
			t.Fatalf("%s: incomplete Table I metadata", k)
		}
		if len(reg[i].Datasets) == 0 || reg[i].New == nil {
			t.Fatalf("%s: no datasets or builder", k)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("ARGA"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("NOPE"); err == nil {
		t.Fatal("want error for unknown workload")
	} else if !strings.Contains(err.Error(), "NOPE") {
		t.Fatalf("error should name the workload: %v", err)
	}
}

func TestRunARGA(t *testing.T) {
	res, err := Run(RunConfig{Workload: "ARGA", Epochs: 2, SampledWarps: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "ARGA" || res.Dataset != "cora" {
		t.Fatalf("run identity wrong: %s %s", res.Workload, res.Dataset)
	}
	if len(res.Losses) != 2 || len(res.EpochSeconds) != 2 {
		t.Fatalf("epochs not recorded: %v %v", res.Losses, res.EpochSeconds)
	}
	if res.Report.Kernels == 0 || res.Report.KernelSeconds <= 0 {
		t.Fatal("no kernels profiled")
	}
	if res.ParamCount == 0 {
		t.Fatal("no parameters")
	}
	if res.Report.TimeShare[gpu.OpSpMM] == 0 {
		t.Fatal("ARGA must spend time in SpMM")
	}
	if len(res.SparsityTimeline) == 0 {
		t.Fatal("no sparsity timeline")
	}
	if res.Report.AvgSparsity < 0.5 {
		t.Fatalf("ARGA/cora H2D sparsity = %.2f, want high (sparse BoW features)", res.Report.AvgSparsity)
	}
}

// TestRunAttributesHostTimeToOpClasses pins the attribution guarantee: with
// observability on, the per-op-class accounting must cover at least 90% of
// the host time the phase spans measure (the op stream is where engine host
// time goes), and ARGA's dominant classes must be present.
func TestRunAttributesHostTimeToOpClasses(t *testing.T) {
	obs.Enable()
	defer func() {
		obs.Reset()
		obs.Disable()
	}()
	res, err := Run(RunConfig{Workload: "ARGA", Epochs: 2, SampledWarps: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HostOpClasses) != 2 || len(res.HostPhases) != 2 {
		t.Fatalf("per-epoch attribution missing: %d op-class, %d phase breakdowns",
			len(res.HostOpClasses), len(res.HostPhases))
	}
	for i, b := range res.HostOpClasses {
		if b.Nanos[gpu.OpGEMM] <= 0 || b.Nanos[gpu.OpSpMM] <= 0 {
			t.Fatalf("epoch %d: ARGA must attribute host time to GEMM and SpMM: %s", i, b.Summary(0))
		}
		phaseNs := res.HostPhases[i].PhaseNanos()
		if cov := b.Coverage(phaseNs); cov < 0.9 {
			t.Fatalf("epoch %d: op-class attribution covers %.1f%% of phase host time, want >= 90%%\n%s",
				i, 100*cov, b.Summary(phaseNs))
		}
	}
}

func TestRunRejectsBadDataset(t *testing.T) {
	if _, err := Run(RunConfig{Workload: "ARGA", Dataset: "reddit"}); err == nil {
		t.Fatal("want error")
	}
	if _, err := Run(RunConfig{Workload: "nope"}); err == nil {
		t.Fatal("want error")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	run := func() RunResult {
		r, err := Run(RunConfig{Workload: "KGNNL", Epochs: 1, Seed: 5, SampledWarps: 256})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Losses[0] != b.Losses[0] || a.Report.Kernels != b.Report.Kernels {
		t.Fatal("runs not deterministic")
	}
}

func TestDefaultSuiteIncludesBothPSAGEDatasets(t *testing.T) {
	suite := DefaultSuite()
	if len(suite) != 9 {
		t.Fatalf("suite size = %d, want 9 (8 workloads + PSAGE/NWP)", len(suite))
	}
	nwp := false
	for _, sr := range suite {
		if sr.Workload == "PSAGE" && sr.Dataset == "NWP" {
			nwp = true
		}
	}
	if !nwp {
		t.Fatal("suite must include PSAGE on NWP")
	}
}

func TestLabel(t *testing.T) {
	r := RunResult{Workload: "PSAGE", Dataset: "NWP"}
	if r.Label() != "PSAGE(NWP)" {
		t.Fatalf("label = %s", r.Label())
	}
	r = RunResult{Workload: "STGCN", Dataset: "METR-LA"}
	if r.Label() != "STGCN" {
		t.Fatalf("label = %s", r.Label())
	}
}

func TestHalfPrecisionRunIsFaster(t *testing.T) {
	fp32, err := Run(RunConfig{Workload: "DGCN", Epochs: 1, SampledWarps: 512})
	if err != nil {
		t.Fatal(err)
	}
	fp16, err := Run(RunConfig{Workload: "DGCN", Epochs: 1, SampledWarps: 512, HalfPrecision: true})
	if err != nil {
		t.Fatal(err)
	}
	if fp16.Report.KernelSeconds >= fp32.Report.KernelSeconds {
		t.Fatalf("fp16 run (%.5fs) should beat fp32 (%.5fs)",
			fp16.Report.KernelSeconds, fp32.Report.KernelSeconds)
	}
}

func TestTimeToTrainConverges(t *testing.T) {
	// STGCN's forecast MSE falls fast; a loose target converges quickly.
	res, err := TimeToTrain(RunConfig{Workload: "STGCN", SampledWarps: 256, Seed: 4}, 0.5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d epochs: %v", res.Epochs, res.LossCurve)
	}
	if res.SimSeconds <= 0 || res.Epochs < 1 {
		t.Fatalf("bad TTT result: %+v", res)
	}
	if res.FinalLoss > res.TargetLoss {
		t.Fatal("converged but final loss above target")
	}
	// A stricter target costs at least as many epochs and simulated time.
	strict, err := TimeToTrain(RunConfig{Workload: "STGCN", SampledWarps: 256, Seed: 4}, 0.2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if strict.Epochs < res.Epochs || strict.SimSeconds < res.SimSeconds {
		t.Fatalf("stricter target was cheaper: %+v vs %+v", strict, res)
	}
}

func TestTimeToTrainCutoff(t *testing.T) {
	res, err := TimeToTrain(RunConfig{Workload: "TLSTM", SampledWarps: 256}, 0.0001, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Epochs != 2 {
		t.Fatalf("impossible target should hit the cutoff: %+v", res)
	}
	if _, err := TimeToTrain(RunConfig{Workload: "TLSTM"}, 0.1, 0); err == nil {
		t.Fatal("want error for non-positive maxEpochs")
	}
	if _, err := TimeToTrain(RunConfig{Workload: "nope"}, 0.1, 1); err == nil {
		t.Fatal("want error for unknown workload")
	}
}
