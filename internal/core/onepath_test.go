package core_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"gnnmark/internal/bench"
	"gnnmark/internal/core"
	"gnnmark/internal/ddp"
	"gnnmark/internal/exec"
	"gnnmark/internal/gpu"
	"gnnmark/internal/loader"
	"gnnmark/internal/models"
	"gnnmark/internal/ops"
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

// TestOOMIsAnErrorOnEveryPlane pins the one failure path: a budget that
// cannot hold the first training kernel is the same *vmem.OOMError, naming
// that kernel, from every plane — bare from a single device, behind an
// exec.RankError from a DDP or partitioned worker — and never a panic.
func TestOOMIsAnErrorOnEveryPlane(t *testing.T) {
	cfg := core.RunConfig{Workload: "ARGA", Epochs: 1, SampledWarps: 64, GPUs: 2, HBMGB: 0.001}
	for name, tc := range map[string]struct {
		run    func() error
		ranked bool
	}{
		"Run":            {func() error { _, err := core.Run(cfg); return err }, false},
		"TimeToTrain":    {func() error { _, err := core.TimeToTrain(cfg, 0.1, 1); return err }, false},
		"RunDDP":         {func() error { _, err := core.RunDDP(cfg); return err }, true},
		"RunPartitioned": {func() error { _, err := core.RunPartitioned(cfg); return err }, true},
		"Train(2)": {func() error {
			_, err := ddp.Train(core.DDPFactory(cfg), 2, 1, ddp.ClusterConfig{})
			return err
		}, true},
	} {
		err := tc.run()
		var oom *vmem.OOMError
		if !errors.As(err, &oom) || oom.Kernel == "" {
			t.Errorf("%s: got %v, want a *vmem.OOMError naming a kernel", name, err)
		}
		var re *exec.RankError
		if got := errors.As(err, &re); got != tc.ranked || got && re.Rank != 0 {
			t.Errorf("%s: rank attribution %v (%v), want ranked=%v at rank 0", name, got, err, tc.ranked)
		}
	}
}

// TestOneConstructionPath keeps the hand-rolled copies from growing back.
// Non-test files under cmd/ and internal/ may not: construct a device
// (gpu.New) outside internal/core; call recover() outside internal/gpu
// (Guard, the one recover for a device failure), internal/exec (the worker
// crash barrier) and internal/serve (request-input safety); or call a
// workload's TrainEpoch() directly outside internal/models — every plane
// trains through models.Env.Epoch, which returns device failures as errors.
// And there is one CLI: one package main under cmd/, one flag.NewFlagSet
// call site (each command's set comes out of the command table), and
// os.Args read in main() only.
func TestOneConstructionPath(t *testing.T) {
	root := filepath.Join("..", "..")
	mainDirs, flagSets := map[string]bool{}, 0
	under := func(rel string, dirs ...string) bool {
		for _, d := range dirs {
			if strings.HasPrefix(rel, "internal/"+d+"/") {
				return true
			}
		}
		return false
	}
	for _, dir := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			if dir == "cmd" {
				if file.Name.Name == "main" {
					mainDirs[filepath.Dir(rel)] = true
				}
				for _, decl := range file.Decls {
					fn, _ := decl.(*ast.FuncDecl)
					inMain := fn != nil && fn.Recv == nil && fn.Name.Name == "main"
					ast.Inspect(decl, func(n ast.Node) bool {
						if sel, ok := n.(*ast.SelectorExpr); ok && !inMain && isPkgSel(sel, "os", "Args") {
							t.Errorf("%s reads os.Args outside main()", rel)
						}
						return true
					})
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					if dir == "cmd" && isPkgSel(fun, "flag", "NewFlagSet") {
						flagSets++
					}
					if isPkgSel(fun, "gpu", "New") && !under(rel, "core") {
						t.Errorf("%s calls gpu.New: build through core.NewReplica or RunConfig.Build", rel)
					}
					if fun.Sel.Name == "TrainEpoch" && len(call.Args) == 0 && !under(rel, "models") {
						t.Errorf("%s calls .TrainEpoch() directly: train through models.Env.Epoch", rel)
					}
				case *ast.Ident:
					if fun.Name == "recover" && !under(rel, "gpu", "exec", "serve") {
						t.Errorf("%s calls recover(): a device failure is the error gpu.Guard returns", rel)
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
	if len(mainDirs) != 1 || flagSets != 1 {
		t.Errorf("cmd/ holds %d package main directories (%v) and %d flag.NewFlagSet call sites, want one of each",
			len(mainDirs), mainDirs, flagSets)
	}
}

// TestOneForwardPerModel keeps each model's training step written once:
// every TrainEpoch declared in a non-test file under internal/models belongs
// to a model type — one that a registry row builds, or the DNN comparator —
// and each of those declares one. Partitioned training is the same
// TrainEpoch over a partitioned graph view (models.Partition's wrapper
// embeds the model), not a second copy of the forward.
func TestOneForwardPerModel(t *testing.T) {
	types := map[string]bool{"DNN": true}
	for _, spec := range core.Registry() {
		env := models.NewEnv(ops.NewWith(nil, nil), 1)
		types[reflect.TypeOf(spec.Build(env, spec.Datasets[0], 1)).Elem().Name()] = true
		env.Close()
	}
	files, err := filepath.Glob(filepath.Join("..", "models", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "TrainEpoch" {
				continue
			}
			recv := ""
			if fn.Recv != nil {
				ast.Inspect(fn.Recv.List[0].Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv = id.Name
					}
					return true
				})
			}
			if !types[recv] {
				t.Errorf("%s: %s.TrainEpoch is a second forward: train the model's own TrainEpoch over a graph view",
					filepath.Base(path), recv)
			}
			found[recv] = true
		}
	}
	for name := range types {
		if !found[name] {
			t.Errorf("model type %s declares no TrainEpoch under internal/models", name)
		}
	}
}

// TestStudiesAreRows keeps the study layer one shape. Over the non-test files
// under cmd/ and internal/: every row of the CLI's command table names a
// figure id (bench.Study.Figure builds it) unless it is one of the few
// commands that do something other than print one table; internal/bench
// declares no Format* function (a study returns a bench.Figure, rendered by
// Figure.Text and internal/report); and a model or dataset constructor
// (models.New*, any function of internal/datasets) is called only from
// internal/models, internal/datasets and internal/core — a study names a
// registry row and hands core.Spec.New a config — except for models.NewDNN,
// the comparator outside the registry.
func TestStudiesAreRows(t *testing.T) {
	notTables := []string{"run", "all", "scenario", "opbench", "benchdiff", "report", "serve-bench", "ttt"}
	root := filepath.Join("..", "..")
	rows, figures := 0, 0
	for _, dir := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			constructs := false
			for _, d := range []string{"models", "datasets", "core"} {
				constructs = constructs || strings.HasPrefix(rel, "internal/"+d+"/")
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if strings.HasPrefix(rel, "internal/bench/") && strings.HasPrefix(n.Name.Name, "Format") {
						t.Errorf("%s declares %s: a study returns a bench.Figure", rel, n.Name.Name)
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || constructs || isPkgSel(sel, "models", "NewDNN") {
						return true
					}
					if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "datasets" || pkg.Name == "models" && strings.HasPrefix(sel.Sel.Name, "New")) {
						t.Errorf("%s calls %s.%s: build registry rows through core (Spec.New takes the model's config)", rel, pkg.Name, sel.Sel.Name)
					}
				case *ast.CompositeLit:
					// A row of the command table is a literal keyed by name.
					fields := map[string]ast.Expr{}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								fields[key.Name] = kv.Value
							}
						}
					}
					name, ok := fields["name"].(*ast.BasicLit)
					if !ok || fields["summary"] == nil || !strings.HasPrefix(rel, "cmd/") {
						return true
					}
					rows++
					if fields["figure"] != nil && fields["run"] == nil {
						figures++
					} else if !slices.Contains(notTables, strings.Trim(name.Value, `"`)) {
						t.Errorf("%s: command %s carries a body instead of a figure id", rel, name.Value)
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
	if len(notTables) > 8 || figures < 20 || rows != figures+len(notTables) {
		t.Errorf("%d command rows, %d with a figure id, %d allowed without; want at least 20 figures and at most 8 others",
			rows, figures, len(notTables))
	}
}

// TestOneWayAcrossABoundary keeps model state crossing every boundary one
// way. Over the non-test files under cmd/ and internal/: nothing asserts to
// models.Checkpointable (it is Workload's alias, kept for e2ebench); nothing
// outside internal/nn calls nn.SaveTraining or nn.LoadTraining (replicas
// carry state through nn.Snapshot and nn.Restore); serve.Weights has one
// constructor. Inside internal/nn: the calls that read a stream or decode a
// word (io.ReadAll, io.ReadFull, binary.Read, Uint32) sit in one file; the
// GNNMARK1 magic is named by two functions, its encoder and — in that file —
// its one parser; and nothing switches or asserts on a type, so no code
// path is chosen by an optimizer's kind.
func TestOneWayAcrossABoundary(t *testing.T) {
	root := filepath.Join("..", "..")
	readerFiles, magicFuncs, weightsCtors := map[string]bool{}, map[string]string{}, 0
	for _, dir := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
			inNN := strings.HasPrefix(rel, "internal/nn/")
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if strings.HasPrefix(rel, "internal/serve/") && fn.Type.Results != nil {
					for _, res := range fn.Type.Results.List {
						if star, ok := res.Type.(*ast.StarExpr); ok {
							if id, ok := star.X.(*ast.Ident); ok && id.Name == "Weights" {
								weightsCtors++
							}
						}
					}
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if inNN && n.Name == "checkpointMagic" {
							magicFuncs[fn.Name.Name] = rel
						}
					case *ast.TypeSwitchStmt:
						if inNN {
							t.Errorf("%s: %s switches on a type", rel, fn.Name.Name)
						}
					case *ast.TypeAssertExpr:
						if sel, ok := n.Type.(*ast.SelectorExpr); ok && isPkgSel(sel, "models", "Checkpointable") {
							t.Errorf("%s: %s asserts to models.Checkpointable: every Workload has Optimizer()", rel, fn.Name.Name)
						}
						if inNN && n.Type != nil {
							t.Errorf("%s: %s asserts on a type", rel, fn.Name.Name)
						}
					case *ast.SelectorExpr:
						if !inNN && (isPkgSel(n, "nn", "SaveTraining") || isPkgSel(n, "nn", "LoadTraining")) {
							t.Errorf("%s: %s calls nn.%s: carry state through nn.Snapshot / nn.Restore", rel, fn.Name.Name, n.Sel.Name)
						}
						if inNN && (isPkgSel(n, "io", "ReadAll") || isPkgSel(n, "io", "ReadFull") ||
							isPkgSel(n, "binary", "Read") || n.Sel.Name == "Uint32") {
							readerFiles[rel] = true
						}
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(readerFiles) != 1 {
		t.Errorf("checkpoint bytes are read in %v, want one file of internal/nn", readerFiles)
	}
	parsers := 0
	for _, rel := range magicFuncs {
		if readerFiles[rel] {
			parsers++
		}
	}
	if len(magicFuncs) != 2 || parsers != 1 {
		t.Errorf("checkpointMagic is named by %v, want its encoder and one parser in the reader file", magicFuncs)
	}
	if weightsCtors != 1 {
		t.Errorf("internal/serve has %d functions returning *Weights, want one constructor", weightsCtors)
	}
}

// keptExports are the exported declarations under internal/ that no non-test
// file names, each with the reason it stays. TestEveryExportHasACaller fails
// on an entry that is gone or has found a caller, so the list only shrinks.
var keptExports = map[string]string{
	"gpu.Cache.AccessLine":     "the byte-address entry point the cache oracle tests drive; touch is its line-indexed core",
	"gpu.OpComm":               "a slot of the paper's op taxonomy: NumOpClasses and the per-class metric set are laid out over it",
	"graph.CSR.HasEdge":        "accessor the graph and datasets tests read structure through",
	"graph.RandomGNP":          "fixture for seven test files in three packages",
	"loader.Decode":            "reference half of the batch codec: the round-trip tests compare Encode against it",
	"nn.LoadParams":            "the parameters-only entry to the decoder and matcher: FuzzLoadParams and the mismatch tests drive them through it",
	"nn.LoadTrainingFile":      "pairs the durable checkpoint writer; the crash tests read back what it wrote",
	"nn.NewSGD":                "the SGD step is part of the Backend interface e2ebench wraps",
	"nn.SaveParams":            "writes the parameters-only stream (one GNNMARK1 block) the decoder's round-trip tests read back",
	"serve.FormatArrivalTrace": "reference half of the arrival-trace parser's round-trip test",
	"tensor.Tensor.MaxAbs":     "accessor the nn, autograd and tensor tests observe values and gradients through",
}

// calledByStdlib are method names the standard library calls through an
// interface (sort, container/heap, errors, fmt), so no file names them.
var calledByStdlib = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Error": true, "Unwrap": true, "String": true,
}

// TestEveryExportHasACaller keeps test-only code from growing back: every
// package lives under internal/, so a declaration the binaries, the examples
// and the root facade never name has no user. Each exported top-level
// function, type, method, interface method (keyed pkg.Iface.Method),
// variable and constant declared in a non-test file under internal/ must
// have its name appear in some non-test file of the module outside its own
// declaration, sit in keptExports, or be a method the standard library calls
// (calledByStdlib). The match is by name (go/parser only, no type
// information): the name of another top-level declaration, an interface's
// method list and a method's receiver type do not count as appearances.
func TestEveryExportHasACaller(t *testing.T) {
	root := filepath.Join("..", "..")
	type export struct {
		key, name, at string
		method        bool
		pos, end      token.Pos
	}
	var exports []export
	seen := map[string][]token.Pos{} // identifier -> where it appears outside a declaring position
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		declaring := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident, recv string, n ast.Node) {
			declaring[id] = true
			if strings.HasPrefix(rel, "internal/") && id.IsExported() {
				exports = append(exports, export{file.Name.Name + "." + recv + id.Name, id.Name,
					fset.Position(id.Pos()).String(), recv != "", n.Pos(), n.End()})
			}
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				recv := ""
				if decl.Recv != nil {
					ast.Inspect(decl.Recv.List[0].Type, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && recv == "" {
							declaring[id], recv = true, id.Name+"."
						}
						return true
					})
				}
				declare(decl.Name, recv, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name, "", spec)
						if iface, ok := spec.Type.(*ast.InterfaceType); ok {
							for _, m := range iface.Methods.List {
								for _, id := range m.Names {
									declare(id, spec.Name.Name+".", m)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id, "", spec)
						}
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declaring[id] {
				seen[id.Name] = append(seen[id.Name], id.Pos())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	uncalled := map[string]bool{}
	for _, e := range exports {
		called := e.method && calledByStdlib[e.name]
		for _, pos := range seen[e.name] {
			if pos < e.pos || pos >= e.end {
				called = true
				break
			}
		}
		if called {
			continue
		}
		uncalled[e.key] = true
		if keptExports[e.key] == "" {
			t.Errorf("%s: %s is named by no non-test file: delete it, or add it to keptExports with the reason it stays", e.at, e.key)
		}
	}
	for key := range keptExports {
		if !uncalled[key] {
			t.Errorf("keptExports lists %s, which is gone or has a caller now: drop the entry", key)
		}
	}
	if len(keptExports) > 40 {
		t.Errorf("keptExports holds %d names, want at most 40", len(keptExports))
	}
}

// keptOptions are the exported fields of *Config/*Options structs under
// internal/ that no non-test file sets, each with the reason it stays.
// TestEveryOptionIsSet fails on an entry that is gone or has found a setter,
// so the list only shrinks.
var keptOptions = map[string]string{
	"models.ARGAConfig.Hidden":          "fixture size: the models and serve tests build a small ARGA",
	"models.ARGAConfig.Embed":           "fixture size: the models and serve tests build a small ARGA",
	"models.DNNConfig.ImageSize":        "fixture size: the models tests build a small DNN",
	"models.DNNConfig.Channels":         "fixture size: the models tests build a small DNN",
	"models.DNNConfig.BatchSize":        "fixture size: the models tests build a small DNN",
	"models.DNNConfig.Batches":          "fixture size: the models tests build a small DNN",
	"models.GWConfig.Heads":             "fixture size: the models tests build a small GW",
	"models.GWConfig.EncLayers":         "fixture size: the models tests build a small GW",
	"models.PSAGEConfig.Hidden":         "fixture size: the models, serve and ddp tests build a small PSAGE",
	"models.TLSTMConfig.EmbedDim":       "fixture size: the models and ddp tests build a small TLSTM",
	"models.TLSTMConfig.Hidden":         "fixture size: the models and ddp tests build a small TLSTM",
	"ddp.ClusterConfig.BucketCapBytes":  "the bucketing test splits the gradients into several buckets with it",
	"ddp.ElasticOptions.CheckpointPath": "the durable checkpoint writer the crash tests drive",
	"serve.LoadConfig.ZipfS":            "the cache-equivalence test raises the popularity skew with it",
	"opbench.Config.Warmup":             "the opbench tests cut a run to one warm-up repetition",
	"opbench.Config.TargetWork":         "the opbench tests cut a case to its smallest work",
}

// TestEveryOptionIsSet keeps constants from growing back as settings: every
// exported field of an exported struct type named *Config or *Options
// declared in a non-test file under internal/ must be written by some
// non-test file of the module, or sit in keptOptions. A write is a
// composite-literal key, an assignment, an increment or taking the field's
// address (a flag binding, &o.cfg.X). Writes inside the type's own defaults()
// method and inside an if statement whose condition reads the same field (the
// `if c.F == 0 { c.F = K }` idiom) are defaults, not settings. Fields are
// matched by their owning type through go/types, so two configs' fields of
// one name are told apart.
func TestEveryOptionIsSet(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	m := &moduleChecker{
		fset: fset,
		dirs: map[string]string{},
		done: map[string]*types.Package{},
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if rel == "." {
			m.dirs["gnnmark"] = path
		} else {
			m.dirs["gnnmark/"+filepath.ToSlash(rel)] = path
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(m.dirs))
	for path := range m.dirs {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		var noGo *build.NoGoError
		if _, err := m.Import(path); err != nil && !errors.As(err, &noGo) {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	// The options: exported fields of the exported *Config/*Options structs
	// under internal/, keyed pkg.Type.Field.
	owner, key := map[*types.Var]*types.TypeName{}, map[*types.Var]string{}
	for _, path := range paths {
		pkg := m.done[path]
		if pkg == nil || !strings.HasPrefix(path, "gnnmark/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					owner[f], key[f] = tn, pkg.Name()+"."+name+"."+f.Name()
				}
			}
		}
	}

	field := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := m.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj().(*types.Var)
			}
		}
		return nil
	}
	set := map[*types.Var]bool{}
	var walk func(n ast.Node, guarded map[*types.Var]bool, defaulting *types.TypeName)
	walk = func(n ast.Node, guarded map[*types.Var]bool, defaulting *types.TypeName) {
		write := func(v *types.Var) {
			if v != nil && !guarded[v] && owner[v] != defaulting {
				set[v] = true
			}
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				inner := map[*types.Var]bool{}
				maps.Copy(inner, guarded)
				ast.Inspect(n.Cond, func(c ast.Node) bool {
					if e, ok := c.(ast.Expr); ok {
						if v := field(e); v != nil {
							inner[v] = true
						}
					}
					return true
				})
				for _, part := range []ast.Node{n.Init, n.Cond} {
					if part != nil {
						walk(part, guarded, defaulting)
					}
				}
				walk(n.Body, inner, defaulting)
				if n.Else != nil {
					walk(n.Else, guarded, defaulting)
				}
				return false
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := m.info.Uses[id].(*types.Var); ok {
								write(v)
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					write(field(lhs))
				}
			case *ast.IncDecStmt:
				write(field(n.X))
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(field(n.X))
				}
			}
			return true
		})
	}
	for _, file := range m.files {
		for _, decl := range file.Decls {
			var defaulting *types.TypeName
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.Name == "defaults" {
				recv := m.info.Defs[fn.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				if named, ok := recv.(*types.Named); ok {
					defaulting = named.Obj()
				}
			}
			walk(decl, nil, defaulting)
		}
	}

	unset := map[string]bool{}
	var errs []string
	for v, k := range key {
		if set[v] {
			continue
		}
		unset[k] = true
		if keptOptions[k] == "" {
			errs = append(errs, fmt.Sprintf("%s: %s is set by no non-test file: make it a constant at its use, or add it to keptOptions with the reason it stays",
				fset.Position(v.Pos()), k))
		}
	}
	for k := range keptOptions {
		if !unset[k] {
			errs = append(errs, fmt.Sprintf("keptOptions lists %s, which is gone or has a setter now: drop the entry", k))
		}
	}
	slices.Sort(errs)
	for _, e := range errs {
		t.Error(e)
	}
	if len(keptOptions) > 16 {
		t.Errorf("keptOptions holds %d fields, want at most 16", len(keptOptions))
	}
	t.Logf("%d option fields, %d set by no non-test file", len(key), len(unset))
}

// moduleChecker type-checks the module's packages from their non-test files
// under the default build constraints, sharing one types.Info, and imports
// the standard library from source. A directory with no such file is a
// *build.NoGoError.
type moduleChecker struct {
	fset  *token.FileSet
	dirs  map[string]string // import path -> directory
	done  map[string]*types.Package
	std   types.Importer
	info  *types.Info
	files []*ast.File
}

// Import implements types.Importer.
func (m *moduleChecker) Import(path string) (*types.Package, error) {
	if pkg := m.done[path]; pkg != nil {
		return pkg, nil
	}
	dir, ok := m.dirs[path]
	if !ok {
		return m.std.Import(path)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		file, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, file)
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.done[path], m.files = pkg, append(m.files, files...)
	return pkg, nil
}

// TestDesignInventoryNamesEveryPackage holds DESIGN.md §2 to the tree: every
// directory of Go files under internal/ and cmd/ is named in the package
// inventory's code block.
func TestDesignInventoryNamesEveryPackage(t *testing.T) {
	root := filepath.Join("..", "..")
	doc, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "## 2. Package inventory")
	_, block, _ := strings.Cut(section, "```")
	block, _, _ = strings.Cut(block, "```")
	missing := map[string]bool{}
	for _, dir := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			rel := filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), root+string(filepath.Separator))) + "/"
			if !strings.Contains(block, rel) && !missing[rel] {
				missing[rel] = true
				t.Errorf("DESIGN.md §2's inventory does not name %s", rel)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// isPkgSel reports whether sel is the qualified identifier pkg.name.
func isPkgSel(sel *ast.SelectorExpr, pkg, name string) bool {
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg && sel.Sel.Name == name
}

// TestConstructionOOMDoesNotLeak pins the guarded build step every factory
// shares: a constructor the device fails mid-build, after its loader workers
// have started, is the *vmem.OOMError as a returned error, and the
// half-built Env's goroutines are gone.
func TestConstructionOOMDoesNotLeak(t *testing.T) {
	cfg := core.RunConfig{HBMGB: 1e-5, SampledWarps: 64, PipelineDepth: 2}
	before := runtime.NumGoroutine()
	_, err := cfg.Build(0, 0, 1, func(env *models.Env) {
		env.NewLoader(func(int, *loader.Batch) {}) // its workers start here
		dev := env.E.Device()
		dev.AllocBlock(1<<20, "preprocessing") // parks the OOM the launch raises
		dev.Launch(&gpu.Kernel{Name: "preprocess", Class: gpu.OpOther, Threads: 32, Mix: gpu.InstrMix{Int32: 32}})
	})
	var oom *vmem.OOMError
	if !errors.As(err, &oom) || oom.Kernel != "preprocess" {
		t.Fatalf("got %v, want the *vmem.OOMError raised in kernel preprocess", err)
	}
	// Loader.Close's drain goroutines end on their own once the workers it
	// waited for have closed their channels.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before the failed build, %d after", before, n)
	}
}
