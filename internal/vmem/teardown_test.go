package vmem_test

import (
	"errors"
	"testing"

	"gnnmark/internal/core"
	"gnnmark/internal/vmem"
)

// errSecondIteration stops a workload's epoch at its second iteration.
var errSecondIteration = errors.New("second iteration")

// TestResetTearsDown holds the teardown law on every registry workload:
// after one training iteration on a V100, Engine.Reset leaves nothing live,
// every reserved byte on a free list and no dead block on one.
func TestResetTearsDown(t *testing.T) {
	for _, spec := range core.Registry() {
		t.Run(spec.Key, func(t *testing.T) {
			rep, err := core.NewReplica(core.RunConfig{Workload: spec.Key, SampledWarps: 64}, 0, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer rep.Env.Close()
			iterations := 0
			rep.Env.OnIteration = func() {
				if iterations++; iterations == 2 {
					panic(errSecondIteration)
				}
			}
			func() {
				defer func() {
					if p := recover(); p != nil && p != errSecondIteration {
						panic(p)
					}
				}()
				rep.W.TrainEpoch()
			}()
			if iterations == 0 {
				t.Fatal("the epoch ran no iteration")
			}
			rep.Env.E.Reset()
			if s := rep.Dev.MemStats(); s.Coalesces == 0 {
				t.Fatalf("nothing was merged away, so nothing could go wrong: %+v", s)
			}
			if err := vmem.CheckTeardown(rep.Dev.Mem()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
