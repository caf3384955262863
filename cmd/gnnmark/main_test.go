package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/ goldens from the command table")

// repoRoot is where the documented invocations are meant to run from.
var repoRoot = filepath.Join("..", "..")

// flagNames returns the flags c accepts, sorted.
func flagNames(c *command) []string {
	var names []string
	c.flagSet(&options{}, flag.ContinueOnError).VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}

// golden compares got with the named file, or rewrites the file under -update.
func golden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s is stale (go test ./cmd/gnnmark -update rewrites it)\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestCLI builds the binary once and drives it: hand-written rows for the
// failure paths (whichever plane hits the simulated OOM, the report is one
// line and the exit code 1) and for flags that used to be accepted and
// ignored; then, for every row of the command table, its -h and one flag it
// does not bind; then a cheap numeric subset run twice.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "gnnmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run executes the binary in dir (subcommands may write artifacts to
	// the cwd) and returns its streams and exit code.
	run := func(t *testing.T, dir string, args ...string) (stdout, stderr string, exit int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		var so, se bytes.Buffer
		cmd.Stdout, cmd.Stderr = &so, &se
		err := cmd.Run()
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		return so.String(), se.String(), exit
	}

	for _, tc := range []struct {
		args      string
		exit      int
		stdout    []string // fragments stdout must contain
		stderr    []string // fragments stderr must contain
		notStdout string   // fragment stdout must not contain
		notStderr string   // fragment stderr must not contain
		file      string   // a file the command writes in its directory,
		inFile    []string // fragments it must contain
		notInFile string   // and one it must not
	}{
		{args: "table1", exit: 0,
			stdout: []string{"PSAGE", "STGCN", "DGCN", "GW", "KGNNL", "KGNNH", "ARGA", "TLSTM"}},
		{args: "no-such-command", exit: 2, stderr: []string{"usage: gnnmark <command>"}},
		// Removed with the analytical DDP estimator (PR 14).
		{args: "weakscale", exit: 2, stderr: []string{"usage: gnnmark <command>"}},
		{args: "partitioned", exit: 2, stderr: []string{"usage: gnnmark <command>"}},
		{args: "run -workload ARGA -dataset bogus -gpus 2 -epochs 1 -warps 64", exit: 1,
			stderr: []string{"has no dataset"}, notStderr: "goroutine"},
		{args: "ttt -workload TLSTM -hbm-gb 0.00001 -max-epochs 1 -warps 64", exit: 1,
			stderr: []string{"simulated device OOM"}, notStderr: "goroutine"},
		// Crashed with a goroutine dump before failures became errors on
		// every plane (DDP, Fig9's own factory, partitioned, sweeps).
		{args: "run -workload TLSTM -gpus 2 -hbm-gb 0.00001 -warps 64", exit: 1,
			stderr: []string{"simulated device OOM in kernel"}, notStderr: "goroutine"},
		{args: "fig9 -hbm-gb 0.00001 -warps 64", exit: 1,
			stderr: []string{"simulated device OOM in kernel"}, notStderr: "goroutine"},
		{args: "figpart -gpus 2 -epochs 1 -hbm-gb 0.00001 -warps 64", exit: 1,
			stderr: []string{"simulated device OOM in kernel"}, notStderr: "goroutine"},
		{args: "sweep -values 4 -hbm-gb 0.00001 -warps 64", exit: 1,
			stderr: []string{"simulated device OOM in kernel"}, notStderr: "goroutine"},
		// Accepted and ignored while every command shared one flag set:
		// figf trained ARGA too, gpucompare ran the default dataset, sweep
		// switched host observability on and wrote no file, and the
		// breakdown was a second binary whose unknown workload exited 2.
		{args: "figf -workload DGCN -gpus 2 -epochs 1 -warps 64", exit: 0,
			stdout: []string{"\nDGCN:\n"}, notStdout: "ARGA:"},
		{args: "gpucompare -workload PSAGE -dataset bogus -epochs 1 -warps 64", exit: 1,
			stderr: []string{"has no dataset"}},
		{args: "sweep -values 4 -warps 64 -metrics-out m.json", exit: 2,
			stderr: []string{"flag provided but not defined: -metrics-out", "usage: gnnmark sweep [flags]"}},
		// Exited 0: a misspelt strategy silently ran DDP, -epochs -1 printed
		// "losses []", -gpus -3 trained one device.
		{args: "run -workload TLSTM -gpus 2 -parallelism partitoned -epochs 1 -warps 64", exit: 1,
			stderr: []string{`gnnmark: core: unknown parallelism "partitoned"`}, notStdout: "strong scaling"},
		{args: "run -workload TLSTM -epochs -1 -warps 64", exit: 1,
			stderr: []string{"gnnmark: core: negative Epochs -1"}, notStdout: "losses"},
		{args: "run -workload TLSTM -gpus -3 -epochs 1 -warps 64", exit: 1,
			stderr: []string{"gnnmark: core: negative GPUs -3"}, notStdout: "losses"},
		{args: "kernels -workload NOPE", exit: 1, stderr: []string{`unknown workload "NOPE"`}, notStderr: "usage"},
		// Named the V100 whatever -gpu ran; the page had no Figure 8, no
		// average rows and no per-operation panels.
		{args: "figm -gpu a100 -epochs 1 -warps 64", exit: 0,
			stdout: []string{"(A100 caching allocator)"}, notStdout: "V100"},
		{args: "report -gpu a100 -epochs 1 -warps 64 -trace page.html", exit: 0, stdout: []string{"wrote page.html"},
			file: "page.html", inFile: []string{"Simulated device: A100-SXM4-40GB.", "(A100 caching allocator)",
				"Figure 8", "Figure 9", "<td>average</td>", "per-operation locality"}, notInFile: "V100"},
		// -trace trained a second way beside `run`: one device whatever
		// -gpus said, and no run summary.
		{args: "run -workload DGCN -epochs 1 -warps 64 -pipeline-depth 2 -trace t.json", exit: 0,
			stdout: []string{"losses [", "wrote"}, file: "t.json", inFile: []string{"stream: compute", "stream: copy engine"}},
		{args: "run -workload ARGA -gpus 2 -parallelism partitioned -epochs 1 -warps 64 -trace t.json", exit: 0,
			file: "t.json", inFile: []string{"stream: gpu1 halo"}},
		{args: "run -workload TLSTM -gpus 2 -epochs 1 -warps 64 -trace t.json", exit: 1,
			stderr: []string{"-host-trace"}, notStdout: "strong scaling"},
		// Accepted and ignored: each of these sets its own epoch count
		// (ttt's cutoff is -max-epochs).
		{args: "ttt -epochs 7 -warps 64", exit: 2,
			stderr: []string{"flag provided but not defined: -epochs", "usage: gnnmark ttt [flags]"}},
		{args: "kernels -epochs 4 -warps 64", exit: 2,
			stderr: []string{"flag provided but not defined: -epochs", "usage: gnnmark kernels [flags]"}},
		{args: "fig9 -epochs 5 -warps 64", exit: 2,
			stderr: []string{"flag provided but not defined: -epochs", "usage: gnnmark fig9 [flags]"}},
		// Listed the keys in map order, different from run to run.
		{args: "sweep -sweep nope -warps 64", exit: 1,
			stderr: []string{`(have [DGCN/hidden DGCN/layers GW/dim PSAGE/walks STGCN/channels TLSTM/batch])`}},
		// Panicked with a goroutine dump (-1), measured the default config
		// under the label 0, or printed an empty table and exited 0.
		{args: "sweep -sweep GW/dim -values 8,-1 -warps 64", exit: 1,
			stderr: []string{"gnnmark: bench: sweep GW/dim: value -1 must be at least 1"}, notStderr: "goroutine", notStdout: "value"},
		{args: "sweep -values= -warps 64", exit: 1,
			stderr: []string{"gnnmark: bench: sweep DGCN/layers: no values"}, notStderr: "goroutine"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			dir := t.TempDir()
			stdout, stderr, exit := run(t, dir, strings.Fields(tc.args)...)
			if tc.file != "" {
				written, err := os.ReadFile(filepath.Join(dir, tc.file))
				if err != nil {
					t.Fatal(err)
				}
				for _, frag := range tc.inFile {
					if !strings.Contains(string(written), frag) {
						t.Errorf("%s missing %q", tc.file, frag)
					}
				}
				if tc.notInFile != "" && strings.Contains(string(written), tc.notInFile) {
					t.Errorf("%s contains %q", tc.file, tc.notInFile)
				}
			}
			if exit != tc.exit {
				t.Errorf("exit %d, want %d\nstderr: %s", exit, tc.exit, stderr)
			}
			for _, frag := range tc.stdout {
				if !strings.Contains(stdout, frag) {
					t.Errorf("stdout missing %q:\n%s", frag, stdout)
				}
			}
			for _, frag := range tc.stderr {
				if !strings.Contains(stderr, frag) {
					t.Errorf("stderr missing %q:\n%s", frag, stderr)
				}
			}
			if tc.notStdout != "" && strings.Contains(stdout, tc.notStdout) {
				t.Errorf("stdout contains %q:\n%s", tc.notStdout, stdout)
			}
			if tc.notStderr != "" && strings.Contains(stderr, tc.notStderr) {
				t.Errorf("stderr contains %q:\n%s", tc.notStderr, stderr)
			}
		})
	}

	// Every row of the table: -h exits 0 and lists exactly the flags of the
	// row's groups; a flag outside them exits 2 naming it, with the row's
	// own usage. The help texts are one golden; so is the accepted
	// (command, flag) pair count the table works out to.
	var help strings.Builder
	pairs := 0
	listed := regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`)
	for i := range commands {
		c := &commands[i]
		names := flagNames(c)
		pairs += len(names)
		t.Run(c.name+" -h", func(t *testing.T) {
			stdout, stderr, exit := run(t, t.TempDir(), c.name, "-h")
			if exit != 0 || stdout != "" {
				t.Errorf("exit %d, stdout %q; want 0 and the help on stderr", exit, stdout)
			}
			var got []string
			for _, m := range listed.FindAllStringSubmatch(stderr, -1) {
				got = append(got, m[1])
			}
			if !slices.Equal(got, names) {
				t.Errorf("-h lists %v, the row binds %v", got, names)
			}
			fmt.Fprintf(&help, "$ gnnmark %s -h\n%s\n", c.name, stderr)
		})
		t.Run(c.name+" foreign flag", func(t *testing.T) {
			for _, foreign := range []string{"serve-qps", "gpus", "target"} {
				if slices.Contains(names, foreign) {
					continue
				}
				_, stderr, exit := run(t, t.TempDir(), c.name, "-"+foreign, "3")
				if exit != 2 || !strings.Contains(stderr, "flag provided but not defined: -"+foreign) ||
					!strings.Contains(stderr, "usage: gnnmark "+c.name) {
					t.Errorf("-%s: exit %d, want 2 naming the flag above the command's usage:\n%s", foreign, exit, stderr)
				}
				return
			}
			t.Fatal("the row binds every candidate flag")
		})
	}
	golden(t, "testdata/help.txt", help.String())
	t.Logf("accepted (command, flag) pairs: %d", pairs)
	if pairs > 320 {
		t.Errorf("the table accepts %d (command, flag) pairs, want at most 320", pairs)
	}

	// Text-only outputs, stable across platforms: the usage, Table I, the
	// scenario library.
	_, usageText, _ := run(t, t.TempDir())
	golden(t, "testdata/usage.txt", usageText)
	table1, _, _ := run(t, t.TempDir(), "table1")
	golden(t, "testdata/table1.txt", table1)
	scenarios, err := filepath.Glob(filepath.Join(repoRoot, "scenarios", "*.yaml"))
	if err != nil || len(scenarios) == 0 {
		t.Fatalf("no scenario library under %s: %v", repoRoot, err)
	}
	for i, path := range scenarios {
		scenarios[i] = filepath.ToSlash(strings.TrimPrefix(path, repoRoot+string(filepath.Separator)))
	}
	checked, stderr, exit := run(t, repoRoot, append([]string{"scenario", "check"}, scenarios...)...)
	if exit != 0 {
		t.Errorf("scenario check: exit %d\n%s", exit, stderr)
	}
	golden(t, "testdata/scenario-check.txt", checked)

	// check and run agree, with the line: `parallelism: single` passed check
	// and killed run inside core; an operand its kind ignores passed both.
	for body, want := range map[string]string{
		"  parallelism: single\n":                             `bad.yaml:6: workload: unknown parallelism "single"`,
		"assertions:\n  - kind: rerun-digest\n    value: 3\n": `bad.yaml:10: assertion rerun-digest does not read "value:"`,
	} {
		dir := t.TempDir()
		src := "scenario: bad\nfleet:\n  nodes:\n    - preset: v100\nworkload:\n  warps: 64\n  key: TLSTM\n  epochs: 1\n" + body
		if err := os.WriteFile(filepath.Join(dir, "bad.yaml"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, sub := range []string{"check", "run"} {
			if stdout, stderr, exit := run(t, dir, "scenario", sub, "bad.yaml"); exit != 1 || stdout != "" || !strings.Contains(stderr, want) {
				t.Errorf("scenario %s: exit %d, stdout %q, stderr %q; want exit 1 and %q", sub, exit, stdout, stderr, want)
			}
		}
	}

	// Determinism: identical flags, identical bytes.
	for _, args := range []string{
		"run -workload TLSTM -epochs 1 -warps 64",
		"ttt -workload TLSTM -max-epochs 1 -warps 64",
		"sweep -values 4 -epochs 1 -warps 64",
		"infer -workload TLSTM -epochs 1 -warps 64",
		"roofline -workload TLSTM -epochs 1 -warps 64",
		"kernels -workload TLSTM -warps 64",
		// The two studies no test or CI step ran to completion.
		"figp -epochs 1 -warps 64",
		"figpart -gpus 2 -epochs 1 -warps 64",
	} {
		t.Run(args+" twice", func(t *testing.T) {
			first, stderr, exit := run(t, t.TempDir(), strings.Fields(args)...)
			if exit != 0 || first == "" {
				t.Fatalf("exit %d, stdout %q\n%s", exit, first, stderr)
			}
			if again, _, _ := run(t, t.TempDir(), strings.Fields(args)...); again != first {
				t.Errorf("rerun differs:\n%s\n--- vs\n%s", first, again)
			}
		})
	}
}

// invocation finds `gnnmark CMD ...` (also ./cmd/gnnmark, /tmp/gnnmark) up
// to the end of its line.
var invocation = regexp.MustCompile("(?:^|[\\s`/])gnnmark ([a-z][a-z0-9-]*)([^`\n]*)")

// TestDocsInvokeTheTable extracts every gnnmark invocation the docs and CI
// show as code and checks that the command is a row of the table and that
// the flags parse under that row's flag set; and every row that names a
// figure id is run by CI. Parse only, nothing runs. Placeholder operands (N,
// X, FILE, ..) are substituted or skipped.
func TestDocsInvokeTheTable(t *testing.T) {
	seen, inCI := 0, map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"} {
		raw, err := os.ReadFile(filepath.Join(repoRoot, doc))
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(raw), "\\\n", " ") // shell line continuations
		markdown, fenced := strings.HasSuffix(doc, ".md"), false
		for _, line := range strings.Split(text, "\n") {
			if markdown && strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			for _, m := range invocation.FindAllStringSubmatchIndex(line, -1) {
				// In prose only `code spans` count: an odd number of
				// backticks before the match means it sits inside one.
				if markdown && !fenced && strings.Count(line[:m[2]], "`")%2 == 0 {
					continue
				}
				name, rest := line[m[2]:m[3]], strings.Fields(line[m[4]:m[5]])
				var args []string
				for _, tok := range rest {
					if strings.HasPrefix(tok, "#") || strings.ContainsAny(tok, "|>&;)") {
						break // a comment, or the shell around the invocation
					}
					switch {
					case tok == "..":
					case strings.ToUpper(tok) == tok && strings.ToLower(tok) != tok:
						args = append(args, "1") // N, X, FILE: any value that parses
					default:
						args = append(args, tok)
					}
				}
				seen++
				inCI[name] = inCI[name] || strings.HasSuffix(doc, "ci.yml")
				i := slices.IndexFunc(commands, func(c command) bool { return c.name == name })
				if i < 0 {
					t.Errorf("%s: `gnnmark %s` is not in the command table", doc, name)
					continue
				}
				fs := commands[i].flagSet(&options{}, flag.ContinueOnError)
				fs.SetOutput(io.Discard)
				if err := fs.Parse(args); err != nil {
					t.Errorf("%s: `gnnmark %s %s`: %v", doc, name, strings.Join(args, " "), err)
				}
			}
		}
	}
	for _, c := range commands {
		if c.figure != "" && (c.figure != c.name || !inCI[c.name]) {
			t.Errorf("`gnnmark %s` prints figure %q and ci.yml runs it: %v; a figure id is its command's name and has a row in CI's smoke step",
				c.name, c.figure, inCI[c.name])
		}
	}
	if seen < 60 {
		t.Errorf("found %d documented invocations, expected the 60-odd the docs carry: is the extraction broken?", seen)
	}
}

// TestEveryFuzzTargetRunsInCI holds ci.yml's fuzz step to the tree: every
// func FuzzX in a _test.go file has exactly one `-fuzz '^FuzzX$' ... ./pkg`
// line naming its package, and every such line names a target declared in
// that package.
func TestEveryFuzzTargetRunsInCI(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	declared := map[string]bool{} // "./pkg FuzzX"
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != repoRoot && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(repoRoot, filepath.Dir(path))
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			declared["./"+filepath.ToSlash(rel)+" "+m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(filepath.Join(repoRoot, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]int{}
	for _, m := range regexp.MustCompile(`(?m)-fuzz '\^(\w+)\$' .* (\./\S+)\s*$`).FindAllStringSubmatch(string(ci), -1) {
		runs[m[2]+" "+m[1]]++
	}
	for target := range declared {
		if runs[target] != 1 {
			t.Errorf("%s: ci.yml's fuzz step runs it %d times, want once", target, runs[target])
		}
	}
	for target := range runs {
		if !declared[target] {
			t.Errorf("ci.yml fuzzes %s, which no _test.go file in that package declares", target)
		}
	}
}
