package core

import (
	"strings"
	"testing"

	"gnnmark/internal/gpu"
	"gnnmark/internal/models"
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
	t.Parallel()
	res, err := Run(RunConfig{Workload: "ARGA", Epochs: 2, SampledWarps: 512, Obs: obs.NewRun()})
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

// finalLoss is a run's last epoch loss.
func finalLoss(res RunResult) float64 { return res.Losses[len(res.Losses)-1] }

func TestTimeToTrainConverges(t *testing.T) {
	// STGCN's forecast MSE falls fast; a loose target converges quickly.
	cfg := RunConfig{Workload: "STGCN", SampledWarps: 256, Seed: 4, TargetLoss: 0.5, Epochs: 20}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if finalLoss(res) > cfg.TargetLoss {
		t.Fatalf("did not converge in %d epochs: %v", len(res.Losses), res.Losses)
	}
	if res.SimSeconds <= 0 || len(res.Losses) < 1 {
		t.Fatalf("bad TTT result: %+v", res)
	}
	for i, loss := range res.Losses[:len(res.Losses)-1] {
		if loss <= cfg.TargetLoss {
			t.Fatalf("epoch %d reached the target (%v) but the run went on: %v", i+1, loss, res.Losses)
		}
	}
	// A stricter target costs at least as many epochs and simulated time.
	cfg.TargetLoss = 0.2
	strict, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Losses) < len(res.Losses) || strict.SimSeconds < res.SimSeconds {
		t.Fatalf("stricter target was cheaper: %d epochs, %vs vs %d epochs, %vs",
			len(strict.Losses), strict.SimSeconds, len(res.Losses), res.SimSeconds)
	}
}

func TestTimeToTrainCutoff(t *testing.T) {
	res, err := Run(RunConfig{Workload: "TLSTM", SampledWarps: 256, TargetLoss: 0.0001, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if finalLoss(res) <= 0.0001 || len(res.Losses) != 2 {
		t.Fatalf("impossible target should hit the cutoff: %v", res.Losses)
	}
	const noCutoff = "core: TargetLoss 0.1 needs an Epochs cutoff"
	if _, err := Run(RunConfig{Workload: "TLSTM", TargetLoss: 0.1}); err == nil || err.Error() != noCutoff {
		t.Fatalf("a target without an epoch cutoff: got %v, want %s", err, noCutoff)
	}
	if _, err := Run(RunConfig{Workload: "nope", TargetLoss: 0.1, Epochs: 1}); err == nil {
		t.Fatal("want error for unknown workload")
	}
}

// TestModelIsTheWorkloadsConfig pins that a Model of another workload's
// config type is a core error from Resolve on every plane, where Spec.New
// would panic on the type assertion.
func TestModelIsTheWorkloadsConfig(t *testing.T) {
	cfg := RunConfig{Workload: "DGCN", Model: models.GWConfig{}, Epochs: 1, SampledWarps: 64, GPUs: 2}
	const want = "core: workload DGCN takes a models.DGCNConfig, not a models.GWConfig"
	for name, run := range map[string]func() error{
		"Run":            func() error { _, err := Run(cfg); return err },
		"RunDDP":         func() error { _, err := RunDDP(cfg); return err },
		"RunPartitioned": func() error { _, err := RunPartitioned(cfg); return err },
	} {
		if err := run(); err == nil || err.Error() != want {
			t.Errorf("%s: got %v, want %s", name, err, want)
		}
	}
	cfg.Model = models.DGCNConfig{Layers: 2}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("the workload's own config: %v", err)
	}
}

// TestConstructionLaunchesNothing holds the condition the kernels study and
// `run -trace` rely on: they listen from the device's construction on, and
// report one epoch and a training-only trace only because no registry
// workload launches a kernel or a copy while it is built.
func TestConstructionLaunchesNothing(t *testing.T) {
	for _, spec := range Registry() {
		for _, dataset := range spec.Datasets {
			rep, err := NewReplica(RunConfig{Workload: spec.Key, Dataset: dataset, SampledWarps: 64}, 0, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if n, s := rep.Dev.KernelCount(), rep.Dev.TransferSeconds(); n != 0 || s != 0 {
				t.Errorf("%s/%s: building it launched %d kernels and %vs of copies", spec.Key, dataset, n, s)
			}
			rep.Env.Close()
		}
	}
}
