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
	"path"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
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
	"gnnmark/internal/serve"
	"gnnmark/internal/vmem"
)

// timeToTrain builds the `ttt` study on cfg with a loss target of 0.1: the
// time-to-train path.
func timeToTrain(cfg core.RunConfig) error {
	cfg.TargetLoss = 0.1
	_, err := bench.Study{RunConfig: cfg}.Figure("ttt")
	return err
}

// TestUnknownDatasetRejectedEverywhere pins that every entry point builds
// through core.NewReplica's resolution: an unknown dataset is the same
// error from all of them, never a panic out of a dataset constructor.
func TestUnknownDatasetRejectedEverywhere(t *testing.T) {
	cfg := core.RunConfig{Workload: "ARGA", Dataset: "bogus", Epochs: 1, SampledWarps: 64, GPUs: 2}
	entries := map[string]func() error{
		"Run":            func() error { _, err := core.Run(cfg); return err },
		"RunDDP":         func() error { _, err := core.RunDDP(cfg); return err },
		"RunPartitioned": func() error { _, err := core.RunPartitioned(cfg); return err },
		"TimeToTrain":    func() error { return timeToTrain(cfg) },
		"FigS":           func() error { _, err := bench.FigS(bench.ServeConfig{Run: cfg}); return err },
	}
	const want = `core: workload ARGA has no dataset "bogus" (have [cora citeseer pubmed])`
	for name, run := range entries {
		if err := run(); err == nil || err.Error() != want {
			t.Errorf("%s: got %v, want %s", name, err, want)
		}
	}
}

// TestTimeToTrainHonoursHBMBudget pins that the `ttt` study resolves its
// device through RunConfig.DeviceConfig like Run does: a budget far below
// the footprint is the simulated-OOM report, not a silently ignored flag.
func TestTimeToTrainHonoursHBMBudget(t *testing.T) {
	err := timeToTrain(core.RunConfig{Workload: "TLSTM", HBMGB: 1e-5, SampledWarps: 64, Epochs: 1})
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
		"TimeToTrain":    {func() error { return timeToTrain(cfg) }, false},
		"RunDDP":         {func() error { _, err := core.RunDDP(cfg); return err }, true},
		"RunPartitioned": {func() error { _, err := core.RunPartitioned(cfg); return err }, true},
		"Train(2)": {func() error {
			_, err := ddp.Train(core.DDPFactory(cfg), 2, 1, ddp.ClusterConfig{})
			return err
		}, true},
		"Serve": {func() error {
			m, rep, err := core.NewServable(core.RunConfig{Workload: "PSAGE", SampledWarps: 64, HBMGB: 2.0 / 1024}, 0, nil)
			if err != nil {
				return err
			}
			defer rep.Env.Close()
			ids := make([]int32, 64)
			for i := range ids {
				ids[i] = int32(i)
			}
			_, _, err = serve.NewReplica(0, m, rep.Env.SimClock).Serve(ids)
			return err
		}, false},
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
// crash barrier) and internal/serve (request-input safety). There is one
// epoch loop: exactly one for/range statement calls a workload's
// TrainEpoch() in its body, in internal/models (models.Env.Train, which
// returns device failures as errors), and no TrainEpoch() call sits outside
// it — every plane trains through Env.Train with its own end hook. One
// replica trains one way: profiler.Attach has one call site, in
// internal/core (Replica.Train, the body of core.Run). And there is one CLI:
// one package main under cmd/, one flag.NewFlagSet call site (each command's
// set comes out of the command table), and os.Args read in main() only.
// Host tensors have one allocation path on the training hot path: no
// tensor.New or tensor.NewPooled call in internal/ops or inside a function
// literal (a backward closure) in internal/autograd.
func TestOneConstructionPath(t *testing.T) {
	root := filepath.Join("..", "..")
	mainDirs, flagSets := map[string]bool{}, 0
	var attaches, epochLoops []string
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
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, path, nil, 0)
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
			// The loops whose body calls .TrainEpoch(); a call outside them
			// would be a second way to train an epoch.
			var loops []ast.Node
			ast.Inspect(file, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch loop := n.(type) {
				case *ast.ForStmt:
					body = loop.Body
				case *ast.RangeStmt:
					body = loop.Body
				default:
					return true
				}
				if callsTrainEpoch(body) {
					loops = append(loops, n)
					epochLoops = append(epochLoops, fmt.Sprintf("%s:%d", rel, fset.Position(n.Pos()).Line))
				}
				return true
			})
			// Host tensors of ops and of the tape's backward closures come
			// from the engine's arena (Engine.Arena), which releases them where
			// their device blocks go.
			var closures []ast.Node
			ast.Inspect(file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && under(rel, "autograd") {
					closures = append(closures, lit)
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (isPkgSel(sel, "tensor", "New") || isPkgSel(sel, "tensor", "NewPooled")) {
					inClosure := slices.ContainsFunc(closures, func(l ast.Node) bool { return l.Pos() <= call.Pos() && call.End() <= l.End() })
					if under(rel, "ops") || inClosure {
						t.Errorf("%s:%d calls tensor.%s: take op outputs and gradients from the engine's arena", rel, fset.Position(call.Pos()).Line, sel.Sel.Name)
					}
				}
				if isTrainEpochCall(call) && !slices.ContainsFunc(loops, func(l ast.Node) bool { return l.Pos() <= call.Pos() && call.End() <= l.End() }) {
					t.Errorf("%s:%d calls .TrainEpoch() outside a loop: train through models.Env.Train", rel, fset.Position(call.Pos()).Line)
				}
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					if dir == "cmd" && isPkgSel(fun, "flag", "NewFlagSet") {
						flagSets++
					}
					if isPkgSel(fun, "gpu", "New") && !under(rel, "core") {
						t.Errorf("%s calls gpu.New: build through core.NewReplica or RunConfig.Build", rel)
					}
					if isPkgSel(fun, "profiler", "Attach") {
						attaches = append(attaches, rel)
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
	if len(epochLoops) != 1 || !strings.HasPrefix(epochLoops[0], "internal/models/") {
		t.Errorf("loops whose body calls .TrainEpoch(): %v, want one, in internal/models (models.Env.Train)", epochLoops)
	}
	if len(attaches) != 1 || !strings.HasPrefix(attaches[0], "internal/core/") {
		t.Errorf("profiler.Attach is called from %v, want once, in internal/core (Replica.Train)", attaches)
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
// registry row and sets RunConfig.Model to the model's config — except for
// models.NewDNN, the comparator outside the registry.
func TestStudiesAreRows(t *testing.T) {
	notTables := []string{"run", "all", "scenario", "opbench", "benchdiff", "report", "serve-bench"}
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
	if len(notTables) > 7 || figures < 20 || rows != figures+len(notTables) {
		t.Errorf("%d command rows, %d with a figure id, %d allowed without; want at least 20 figures and at most 7 others",
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
// file uses, each with the reason it stays: an oracle, fixture or reference
// half another package's tests need. TestEveryExportHasACaller fails on an
// entry that is gone or has found a caller, so the list only shrinks.
var keptExports = map[string]string{
	"gpu.Cache.AccessLine":     "the byte-address entry point the cache oracle tests drive; touch is its line-indexed core",
	"gpu.OpComm":               "a slot of the paper's op taxonomy: NumOpClasses and the per-class metric set are laid out over it",
	"graph.CSR.HasEdge":        "accessor the graph and datasets tests read structure through",
	"graph.CSR.Validate":       "the structural oracle the graph and datasets tests check every built adjacency with",
	"graph.RandomGNP":          "fixture for seven test files in three packages",
	"graph.Tree.Validate":      "the structural oracle the graph and datasets tests check every built parse tree with",
	"loader.Decode":            "reference half of the batch codec: the round-trip tests compare Encode against it",
	"nn.LoadParams":            "the parameters-only entry to the decoder and matcher: FuzzLoadParams and the mismatch tests drive them through it",
	"nn.LoadTrainingFile":      "pairs the durable checkpoint writer; the crash tests read back what it wrote",
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
// package lives under internal/, so a declaration the binaries, the examples,
// the root facade and e2ebench never use has no user. Each exported top-level
// function, type, variable and constant, method (of any type) and interface
// method declared in a non-test file under internal/ must be used by some
// non-test file of the module outside its own declaration, sit in
// keptExports, or be a method the standard library calls (calledByStdlib).
// Uses are matched by object through go/types, so a method or field of the
// same name elsewhere does not hide one; a method's receiver type does not
// count as a use of that type. A method is also called when it implements a
// used interface method, through its type's method set with promoted methods
// included (an embedded trainer's Optimizer counts through
// models.Workload.Optimizer).
func TestEveryExportHasACaller(t *testing.T) {
	m := loadModule(t)
	type decl struct {
		key      string
		pos, end token.Pos
	}
	exports := map[types.Object]decl{} // keyed pkg.Name or pkg.Type.Method
	receivers := map[*ast.Ident]bool{}
	var named []*types.TypeName // every declared type: the candidates that implement a used interface
	declare := func(id *ast.Ident, recv string, n ast.Node) {
		if obj := m.info.Defs[id]; obj != nil && obj.Exported() && strings.HasPrefix(obj.Pkg().Path(), "gnnmark/internal/") {
			exports[obj] = decl{obj.Pkg().Name() + "." + recv + id.Name, n.Pos(), n.End()}
		}
	}
	for _, file := range m.files {
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && recv == "" {
							receivers[id], recv = true, id.Name+"."
						}
						return true
					})
				}
				declare(d.Name, recv, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name, "", spec)
						if tn, ok := m.info.Defs[spec.Name].(*types.TypeName); ok {
							named = append(named, tn)
						}
						if iface, ok := spec.Type.(*ast.InterfaceType); ok {
							for _, f := range iface.Methods.List {
								for _, id := range f.Names {
									declare(id, spec.Name.Name+".", f)
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
	}

	used := map[types.Object]bool{}
	ifaces := map[*types.Interface][]*types.Func{} // interface -> its methods some file calls
	for id, obj := range m.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if d, ok := exports[obj]; receivers[id] || ok && id.Pos() >= d.pos && id.Pos() < d.end {
			continue
		}
		used[obj] = true
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok && !slices.Contains(ifaces[iface], fn) {
					ifaces[iface] = append(ifaces[iface], fn)
				}
			}
		}
	}
	for _, tn := range named {
		typ := tn.Type()
		if !types.IsInterface(typ) {
			typ = types.NewPointer(typ)
		}
		mset := types.NewMethodSet(typ)
		for iface, methods := range ifaces {
			if !types.Implements(typ, iface) {
				continue
			}
			for _, im := range methods {
				if sel := mset.Lookup(im.Pkg(), im.Name()); sel != nil {
					used[sel.Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}

	uncalled := map[string]bool{}
	var errs []string
	for obj, d := range exports {
		fn, method := obj.(*types.Func)
		if used[obj] || method && fn.Type().(*types.Signature).Recv() != nil && calledByStdlib[obj.Name()] {
			continue
		}
		uncalled[d.key] = true
		if keptExports[d.key] == "" {
			errs = append(errs, fmt.Sprintf("%s: %s is used by no non-test file: delete it, or add it to keptExports with the reason it stays",
				m.fset.Position(obj.Pos()), d.key))
		}
	}
	for key := range keptExports {
		if !uncalled[key] {
			errs = append(errs, fmt.Sprintf("keptExports lists %s, which is gone or has a caller now: drop the entry", key))
		}
	}
	slices.Sort(errs)
	for _, e := range errs {
		t.Error(e)
	}
	if len(keptExports) > 12 {
		t.Errorf("keptExports holds %d names, want at most 12", len(keptExports))
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
	m := loadModule(t)
	fset := m.fset

	// The options: exported fields of the exported *Config/*Options structs
	// under internal/, keyed pkg.Type.Field.
	owner, key := map[*types.Var]*types.TypeName{}, map[*types.Var]string{}
	for path, pkg := range m.done {
		if !strings.HasPrefix(path, "gnnmark/internal/") {
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

// keptFields are the struct fields under internal/ and cmd/ that no non-test
// file reads, each with the reason it stays. TestEveryFieldIsRead fails on an
// entry that is gone or has found a reader, so the list only shrinks.
var keptFields = map[string]string{
	"datasets.Bipartite.Hetero":  "the one non-test user of graph.Hetero, whose tests the tier-1 floor lists",
	"datasets.Bipartite.Users":   "drawn from the dataset RNG stream: dropping the draw would move every later value",
	"datasets.Citation.Labels":   "drawn from the dataset RNG stream: dropping the draw would move every later value",
	"datasets.KGExample.Rel":     "drawn from the dataset RNG stream: dropping the draw would move every later value",
	"ddp.ElasticResult.Rounds":   "the elastic tests check when a failure struck, and the chaos golden digest prints its length",
	"ddp.Round.Epochs":           "the elastic tests check how many epochs a round completed before its failure",
	"ddp.Round.Failure":          "the elastic tests check which slot and event ended a round",
	"exec.abortPanic.err":        "the panic value: Go prints it if an abort ever escapes a worker",
	"graph.NeighborSample.Seed":  "names the node a sample was drawn for; the sampler tests check it",
	"graph.PartitionPlan.Parts":  "the partitioner's label per node; the plan tests hold the local parts to it",
	"obs.Span.Parent":            "the nesting the span tests check",
	"partitioned.Result.Workers": "the trained ranks the equivalence tests compare with one device, parameter for parameter",
	"serve.Request.Seq":          "the arrival number the admission-queue and trace tests identify requests by",
	"tensor.PoolStats.Puts":      "the pool tests observe which buffers Recycle accepts through it",
	"vmem.OOMError.Requested":    "payload of a returned error: the unrounded size a caller asked for",
	"vmem.Stats.Coalesces":       "the allocator tests observe coalescing through it",
	"vmem.Stats.Frees":           "the allocator tests count frees through it",
	"vmem.Stats.SegmentsFreed":   "the allocator tests observe cached segments released under pressure through it",
	"vmem.Stats.Splits":          "the allocator tests observe splitting through it",
}

// TestEveryFieldIsRead keeps write-only state from growing back: every
// non-embedded field of every package-level struct type (aliases skipped)
// declared in a non-test file under internal/ or cmd/ must be read by some
// non-test file of the module, or sit in keptFields. Fields are matched by
// object through go/types. A selector is a write, not a read, when it is the
// left-hand side of an assignment, the operand of ++ or --, or the first
// argument of a self-append (x.f = append(x.f, ...)); a composite-literal key
// is a write too. encoding/json (Marshal, MarshalIndent, Encoder.Encode) and
// the template packages' Execute read by reflection: every exported field of
// every struct type reachable from the static type of such an argument,
// through pointers, slices, arrays, maps and exported or embedded fields,
// counts as read.
func TestEveryFieldIsRead(t *testing.T) {
	m := loadModule(t)

	key := map[*types.Var]string{}
	for p, pkg := range m.done {
		if !strings.HasPrefix(p, "gnnmark/internal/") && !strings.HasPrefix(p, "gnnmark/cmd/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); !f.Embedded() {
						key[f] = path.Base(p) + "." + name + "." + f.Name()
					}
				}
			}
		}
	}

	field := func(e ast.Expr) (*ast.SelectorExpr, *types.Var) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := m.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return sel, s.Obj().(*types.Var).Origin()
			}
		}
		return nil, nil
	}
	read, seen := map[*types.Var]bool{}, map[types.Type]bool{}
	var reach func(typ types.Type)
	reach = func(typ types.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch u := typ.Underlying().(type) {
		case *types.Pointer:
			reach(u.Elem())
		case *types.Slice:
			reach(u.Elem())
		case *types.Array:
			reach(u.Elem())
		case *types.Map:
			reach(u.Key())
			reach(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() || f.Embedded() {
					read[f.Origin()] = true
					reach(f.Type())
				}
			}
		}
	}
	writes := map[*ast.SelectorExpr]bool{}
	for _, file := range m.files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, v := field(lhs)
					if sel == nil {
						continue
					}
					writes[sel] = true
					if len(n.Rhs) != len(n.Lhs) {
						continue
					}
					if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && len(call.Args) > 0 {
						if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && m.info.Uses[fn] == types.Universe.Lookup("append") {
							if arg, w := field(call.Args[0]); w == v {
								writes[arg] = true
							}
						}
					}
				}
			case *ast.IncDecStmt:
				if sel, _ := field(n.X); sel != nil {
					writes[sel] = true
				}
			case *ast.CallExpr:
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok || len(n.Args) == 0 {
					break
				}
				fn, ok := m.info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					break
				}
				switch pkg, name := fn.Pkg().Path(), fn.Name(); {
				case pkg == "encoding/json" && (name == "Marshal" || name == "MarshalIndent" || name == "Encode"):
					reach(m.info.TypeOf(n.Args[0]))
				case (pkg == "text/template" || pkg == "html/template") && name == "Execute":
					reach(m.info.TypeOf(n.Args[len(n.Args)-1]))
				}
			}
			return true
		})
	}
	for sel, s := range m.info.Selections {
		if s.Kind() == types.FieldVal && !writes[sel] {
			read[s.Obj().(*types.Var).Origin()] = true
		}
	}

	unread := map[string]bool{}
	var errs []string
	for v, k := range key {
		if read[v] {
			continue
		}
		unread[k] = true
		if keptFields[k] == "" {
			errs = append(errs, fmt.Sprintf("%s: %s is read by no non-test file: delete it with the code that fills it, or add it to keptFields with the reason it stays",
				m.fset.Position(v.Pos()), k))
		}
	}
	for k := range keptFields {
		if !unread[k] {
			errs = append(errs, fmt.Sprintf("keptFields lists %s, which is gone or has a reader now: drop the entry", k))
		}
	}
	slices.Sort(errs)
	for _, e := range errs {
		t.Error(e)
	}
	if len(keptFields) > 19 {
		t.Errorf("keptFields holds %d fields, want at most 19", len(keptFields))
	}
	t.Logf("%d struct fields, %d read by no non-test file", len(key), len(unread))
}

// TestNoProcessGlobalObs keeps runs apart. A package-level variable outside
// internal/obs that holds an obs handle (*obs.Counter, *obs.Gauge,
// *obs.Histogram or *obs.Track; in an array, slice, map or struct too)
// belongs to no run, so every run in the process would record into it; a
// handle is a field its owner resolves from the run it is built for. And the
// switches over the process-global run (obs.Enable, Disable, Enabled, Reset,
// CapturePhases, ops.CaptureOpClasses) are kept for the frozen e2ebench
// harness alone: no non-test file under cmd/ or internal/ (but obs itself)
// calls them.
func TestNoProcessGlobalObs(t *testing.T) {
	m := loadModule(t)
	const obsPath = "gnnmark/internal/obs"
	var holds func(typ types.Type, seen map[types.Type]bool) bool
	holds = func(typ types.Type, seen map[types.Type]bool) bool {
		if seen[typ] {
			return false
		}
		seen[typ] = true
		switch u := typ.(type) {
		case *types.Pointer:
			if n, ok := u.Elem().(*types.Named); ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == obsPath &&
				slices.Contains([]string{"Counter", "Gauge", "Histogram", "Track"}, n.Obj().Name()) {
				return true
			}
			return holds(u.Elem(), seen)
		case *types.Named: // a *obs.Run is the run itself, not a handle outside one
			return (u.Obj().Pkg() == nil || u.Obj().Pkg().Path() != obsPath) && holds(u.Underlying(), seen)
		case *types.Array:
			return holds(u.Elem(), seen)
		case *types.Slice:
			return holds(u.Elem(), seen)
		case *types.Map:
			return holds(u.Elem(), seen)
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if holds(u.Field(i).Type(), seen) {
					return true
				}
			}
		}
		return false
	}
	var errs []string
	for p, pkg := range m.done {
		if p == obsPath {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			if v, ok := pkg.Scope().Lookup(name).(*types.Var); ok && holds(v.Type(), map[types.Type]bool{}) {
				errs = append(errs, fmt.Sprintf("%s: package-level %s.%s holds an obs handle outside any run: make it a field its owner resolves from its run",
					m.fset.Position(v.Pos()), pkg.Name(), name))
			}
		}
	}
	shims := map[string]bool{obsPath + ".Enable": true, obsPath + ".Disable": true, obsPath + ".Enabled": true,
		obsPath + ".Reset": true, obsPath + ".CapturePhases": true, "gnnmark/internal/ops.CaptureOpClasses": true}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for id, obj := range m.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil || !shims[fn.Pkg().Path()+"."+fn.Name()] {
			continue
		}
		pos := m.fset.Position(id.Pos())
		abs, err := filepath.Abs(pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil {
			t.Fatal(err)
		}
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "internal/obs" && (strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "internal/")) {
			errs = append(errs, fmt.Sprintf("%s: calls %s.%s, a switch of the process-global run kept for e2ebench: record into the run this code is built for",
				pos, fn.Pkg().Name(), fn.Name()))
		}
	}
	slices.Sort(errs)
	for _, e := range errs {
		t.Error(e)
	}
}

// module is the one type-checked load of the module both go/types guards
// read: checking it, with the standard library from source, takes about a
// second, so a test binary does it once.
var module struct {
	once sync.Once
	m    *moduleChecker
	err  error
}

// loadModule returns the shared load, type-checking the module on first use.
func loadModule(t *testing.T) *moduleChecker {
	t.Helper()
	module.once.Do(func() { module.m, module.err = checkModule(filepath.Join("..", "..")) })
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.m
}

// checkModule type-checks every package of the module rooted at root from
// its non-test files, in import-path order.
func checkModule(root string) (*moduleChecker, error) {
	fset := token.NewFileSet()
	m := &moduleChecker{
		fset: fset,
		dirs: map[string]string{},
		done: map[string]*types.Package{},
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
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
		return nil, err
	}
	paths := make([]string, 0, len(m.dirs))
	for path := range m.dirs {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		var noGo *build.NoGoError
		if _, err := m.Import(path); err != nil && !errors.As(err, &noGo) {
			return nil, fmt.Errorf("type-checking %s: %w", path, err)
		}
	}
	return m, nil
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
// isTrainEpochCall reports whether call is a workload's x.TrainEpoch().
func isTrainEpochCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "TrainEpoch" && len(call.Args) == 0
}

// callsTrainEpoch reports whether n contains a .TrainEpoch() call.
func callsTrainEpoch(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isTrainEpochCall(call) {
			found = true
		}
		return !found
	})
	return found
}

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
