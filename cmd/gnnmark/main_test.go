package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLI builds the binary once and pins exit code and output for the
// subcommands whose failure paths run through gpu.Guard: whichever plane
// hits the simulated OOM, the report is one line and the exit code 1.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "gnnmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args      string
		exit      int
		stdout    []string // fragments stdout must contain
		stderr    []string // fragments stderr must contain
		notStderr string   // fragment stderr must not contain
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
	} {
		t.Run(tc.args, func(t *testing.T) {
			cmd := exec.Command(bin, strings.Fields(tc.args)...)
			cmd.Dir = t.TempDir() // subcommands may write artifacts to the cwd
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != tc.exit {
				t.Errorf("exit %d, want %d\nstderr: %s", exit, tc.exit, stderr.String())
			}
			for _, frag := range tc.stdout {
				if !strings.Contains(stdout.String(), frag) {
					t.Errorf("stdout missing %q:\n%s", frag, stdout.String())
				}
			}
			for _, frag := range tc.stderr {
				if !strings.Contains(stderr.String(), frag) {
					t.Errorf("stderr missing %q:\n%s", frag, stderr.String())
				}
			}
			if tc.notStderr != "" && strings.Contains(stderr.String(), tc.notStderr) {
				t.Errorf("stderr contains %q:\n%s", tc.notStderr, stderr.String())
			}
		})
	}
}
