package ops

import (
	"math/rand"
	"testing"

	"gnnmark/internal/gpu"
	"gnnmark/internal/tensor"
)

// TestLoweringAllocatesNothing: once an engine on a V100 has run an
// iteration, running an op again in the next one allocates nothing on the
// host but the op's index streams (GatherRows' row stream, ScatterAddRows'
// two): the output and its header come from the arena, the kernel's access
// list from the engine's scratch, its name from the engine's cache, and its
// device block from the allocator's free lists and reclaimed blocks.
// Header chunks amortise to under one allocation per op.
func TestLoweringAllocatesNothing(t *testing.T) {
	e := New(gpu.New(gpu.V100()))
	rng := rand.New(rand.NewSource(3))
	x, w := tensor.Rand(rng, 1, 96, 48), tensor.Rand(rng, 1, 48, 40)
	bias := tensor.Rand(rng, 1, 40)
	idx := make([]int32, 200)
	for i := range idx {
		idx[i] = int32(rng.Intn(96))
	}
	src := tensor.Rand(rng, 1, len(idx), 48)
	ops := []struct {
		name  string
		most  float64
		apply func()
	}{
		{"MatMul", 0, func() { e.MatMul(x, w) }},
		{"GatherRows", 1, func() { e.GatherRows(x, idx) }},
		{"ScatterAddRows", 2, func() { e.ScatterAddRows(e.arena.New(96, 48), src, idx) }},
		{"AddBiasRows", 0, func() { e.AddBiasRows(e.MatMul(x, w), bias) }},
		{"ReLU", 0, func() { e.ReLU(x) }},
		{"SumRows", 0, func() { e.SumRows(x) }},
	}
	for _, op := range ops {
		e.BeginIteration()
		op.apply()
		got := testing.AllocsPerRun(200, func() {
			e.BeginIteration()
			op.apply()
		})
		if got > op.most {
			t.Errorf("%s: %.0f allocations per iteration after the first, want at most %.0f", op.name, got, op.most)
		}
	}
	e.Device().Sync()
}
