package main

import (
	"errors"
	"fmt"
	"os"

	"gnnmark/internal/scenario"
)

// runScenario implements `gnnmark scenario run|check FILE...`: the CLI
// face of the declarative chaos harness. `check` parses and validates
// without executing; `run` executes each scenario and checks its
// assertions, exiting non-zero with the failed assertion named.
func runScenario(o *options) {
	if len(o.args) < 2 {
		o.badOperands()
	}
	sub, files := o.args[0], o.args[1:]
	if sub != "run" && sub != "check" {
		fmt.Fprintf(os.Stderr, "gnnmark: unknown scenario subcommand %q (want run or check)\n", sub)
		os.Exit(2)
	}
	for _, path := range files {
		sc, err := loadScenario(path)
		fail(err)
		if sub == "check" {
			fmt.Printf("ok %s: scenario %q (%d node(s), %d event(s), %d assertion(s))\n",
				path, sc.Name, len(sc.Fleet.Nodes), len(sc.Events), len(sc.Assertions))
			continue
		}
		out, err := scenario.Run(sc)
		if out != nil {
			fmt.Print(out.Summary())
		}
		var ae *scenario.AssertionError
		if errors.As(err, &ae) {
			fmt.Fprintf(os.Stderr, "gnnmark: %s: %v\n", path, err)
			os.Exit(1)
		}
		fail(err)
		fmt.Printf("pass %s: %d assertion(s) held\n", path, len(sc.Assertions))
	}
}

// loadScenario parses and validates one scenario file, stamping the path
// onto validation errors so every failure reads "file:line: message".
func loadScenario(path string) (*scenario.Scenario, error) {
	sc, err := scenario.ParseFile(path)
	if err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		var pe *scenario.ParseError
		if errors.As(err, &pe) && pe.File == "" {
			pe.File = path
		}
		return nil, err
	}
	return sc, nil
}
