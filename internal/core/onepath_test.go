package core_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"gnnmark/internal/bench"
	"gnnmark/internal/core"
	"gnnmark/internal/vmem"
)

// TestUnknownDatasetRejectedEverywhere pins that every entry point builds
// through core.NewReplica's resolution: an unknown dataset is the same
// error from all of them, never a panic out of a dataset constructor.
func TestUnknownDatasetRejectedEverywhere(t *testing.T) {
	cfg := core.RunConfig{Workload: "ARGA", Dataset: "bogus", Epochs: 1, SampledWarps: 64, GPUs: 2}
	entries := map[string]func() error{
		"Run":            func() error { _, err := core.Run(cfg); return err },
		"RunDDP":         func() error { _, err := core.RunDDP(cfg); return err },
		"RunPartitioned": func() error { _, err := core.RunPartitioned(cfg); return err },
		"TimeToTrain":    func() error { _, err := core.TimeToTrain(cfg, 0.1, 1); return err },
		"FigS":           func() error { _, err := bench.FigS(bench.ServeConfig{Run: cfg}); return err },
	}
	const want = `core: workload ARGA has no dataset "bogus" (have [cora citeseer pubmed])`
	for name, run := range entries {
		if err := run(); err == nil || err.Error() != want {
			t.Errorf("%s: got %v, want %s", name, err, want)
		}
	}
}

// TestTimeToTrainHonoursHBMBudget pins that TimeToTrain resolves its device
// through RunConfig.DeviceConfig like Run does: a budget far below the
// footprint is the simulated-OOM report, not a silently ignored flag.
func TestTimeToTrainHonoursHBMBudget(t *testing.T) {
	_, err := core.TimeToTrain(core.RunConfig{Workload: "TLSTM", HBMGB: 1e-5, SampledWarps: 64}, 0.1, 1)
	var oom *vmem.OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("want *vmem.OOMError, got %v", err)
	}
	if oom.Kernel == "" {
		t.Fatalf("OOM report names no kernel: %v", oom)
	}
}

// TestOneConstructionPath keeps the hand-rolled build sites from growing
// back: outside internal/core no non-test file under cmd/ or internal/ may
// construct a device (gpu.New), and the scenario executor may not recover —
// core.Replica owns the single-device failure path.
func TestOneConstructionPath(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, dir := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
			if strings.HasPrefix(rel, "internal/core/") {
				return nil
			}
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					if pkg, ok := fun.X.(*ast.Ident); ok && pkg.Name == "gpu" && fun.Sel.Name == "New" {
						t.Errorf("%s calls gpu.New: build through core.NewReplica or RunConfig.NewEnv", rel)
					}
				case *ast.Ident:
					if fun.Name == "recover" && strings.HasPrefix(rel, "internal/scenario/") {
						t.Errorf("%s calls recover(): core.Replica.Epoch returns device failures as errors", rel)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
