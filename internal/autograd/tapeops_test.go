package autograd

import (
	"math/rand"
	"testing"

	"gnnmark/internal/ops"
	"gnnmark/internal/tensor"
)

// tapeOpGradCheck verifies one tape op's input gradient numerically.
func tapeOpGradCheck(t *testing.T, name string, shape []int, apply func(tp *Tape, v *Var) *Var) {
	t.Helper()
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(31))
	p := NewParam(name, tensor.Rand(rng, 1, shape...))
	var wShape []int
	run := func() (*Tape, *Var) {
		tp := NewTape(e)
		out := apply(tp, tp.FromParam(p))
		if wShape == nil {
			wShape = out.Value.Shape()
		}
		w := tensor.New(wShape...)
		for i := range w.Data() {
			w.Data()[i] = float32((i%7))*0.3 - 0.8
		}
		return tp, tp.MeanAll(tp.Mul(out, tp.Const(w)))
	}
	lossOnly := func() float64 { _, l := run(); return float64(l.Value.At(0)) }
	analytic := func() *tensor.Tensor {
		p.ZeroGrad()
		tp, l := run()
		tp.Backward(l)
		return p.Grad
	}
	gradCheck(t, name, p, lossOnly, analytic, 3e-2)
}

func TestPermute4DGradient(t *testing.T) {
	tapeOpGradCheck(t, "permute", []int{2, 3, 2, 2}, func(tp *Tape, v *Var) *Var {
		return tp.Permute4D(v, [4]int{2, 0, 3, 1})
	})
}

func TestSliceColsGradient(t *testing.T) {
	tapeOpGradCheck(t, "slicecols", []int{3, 6}, func(tp *Tape, v *Var) *Var {
		return tp.SliceCols(v, 1, 4)
	})
}

func TestConcatRowsGradient(t *testing.T) {
	tapeOpGradCheck(t, "concatrows", []int{3, 4}, func(tp *Tape, v *Var) *Var {
		other := tp.Const(tensor.Full(0.5, 2, 4))
		return tp.ConcatRows(v, other)
	})
}

func TestConcatColsGradient(t *testing.T) {
	tapeOpGradCheck(t, "concat", []int{3, 2}, func(tp *Tape, v *Var) *Var {
		other := tp.Const(tensor.Full(0.5, 3, 3))
		return tp.Concat(v, other)
	})
}

func TestGLU4DGradient(t *testing.T) {
	tapeOpGradCheck(t, "glu", []int{2, 4, 3, 2}, func(tp *Tape, v *Var) *Var {
		return tp.GLU4D(v)
	})
}

func TestBatchNorm2DGradient(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(32))
	x := NewParam("x", tensor.Rand(rng, 1, 2, 3, 2, 2))
	gamma := NewParam("gamma", tensor.Full(1.2, 3))
	beta := NewParam("beta", tensor.New(3))
	w := tensor.Rand(rng, 1, 2, 3, 2, 2)

	run := func() (*Tape, *Var) {
		tp := NewTape(e)
		out := tp.BatchNorm2D(tp.FromParam(x), tp.FromParam(gamma), tp.FromParam(beta), 1e-5)
		return tp, tp.MeanAll(tp.Mul(out, tp.Const(w)))
	}
	lossOnly := func() float64 { _, l := run(); return float64(l.Value.At(0)) }
	mk := func(p *Param) func() *tensor.Tensor {
		return func() *tensor.Tensor {
			x.ZeroGrad()
			gamma.ZeroGrad()
			beta.ZeroGrad()
			tp, l := run()
			tp.Backward(l)
			return p.Grad
		}
	}
	gradCheck(t, "bn2d-x", x, lossOnly, mk(x), 5e-2)
	gradCheck(t, "bn2d-gamma", gamma, lossOnly, mk(gamma), 5e-2)
	gradCheck(t, "bn2d-beta", beta, lossOnly, mk(beta), 5e-2)
}

func TestAddChannelBiasGradient(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(33))
	bias := NewParam("cbias", tensor.Rand(rng, 1, 3))
	x := tensor.Rand(rng, 1, 2, 3, 2, 2)
	w := tensor.Rand(rng, 1, 2, 3, 2, 2)

	run := func() (*Tape, *Var) {
		tp := NewTape(e)
		out := tp.AddChannelBias(tp.Const(x), tp.FromParam(bias))
		return tp, tp.MeanAll(tp.Mul(out, tp.Const(w)))
	}
	lossOnly := func() float64 { _, l := run(); return float64(l.Value.At(0)) }
	analytic := func() *tensor.Tensor {
		bias.ZeroGrad()
		tp, l := run()
		tp.Backward(l)
		return bias.Grad
	}
	gradCheck(t, "channel-bias", bias, lossOnly, analytic, 2e-2)
}

func TestMaxMarginGradient(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(34))
	pos := NewParam("pos", tensor.Rand(rng, 1, 6))
	neg := tensor.Rand(rng, 1, 6)
	// Move scores away from the hinge kink for stable finite differences.
	for i := range pos.Value.Data() {
		d := pos.Value.Data()[i] - neg.Data()[i] - 0.5
		if d > -0.15 && d < 0.15 {
			pos.Value.Data()[i] += 0.4
		}
	}
	run := func() (*Tape, *Var) {
		tp := NewTape(e)
		return tp, tp.MaxMargin(tp.FromParam(pos), tp.Const(neg), 0.5)
	}
	lossOnly := func() float64 { _, l := run(); return float64(l.Value.At(0)) }
	analytic := func() *tensor.Tensor {
		pos.ZeroGrad()
		tp, l := run()
		tp.Backward(l)
		return pos.Grad
	}
	gradCheck(t, "maxmargin", pos, lossOnly, analytic, 2e-2)
}

func TestSumColsGradient(t *testing.T) {
	tapeOpGradCheck(t, "sumcols", []int{4, 3}, func(tp *Tape, v *Var) *Var {
		s := tp.SumCols(v) // (4)
		return tp.Reshape(s, 4, 1)
	})
}

func TestScaleAndSubGradients(t *testing.T) {
	tapeOpGradCheck(t, "scale", []int{3, 3}, func(tp *Tape, v *Var) *Var {
		return tp.Scale(v, -2.5)
	})
	tapeOpGradCheck(t, "sub", []int{3, 3}, func(tp *Tape, v *Var) *Var {
		return tp.Sub(tp.Const(tensor.Full(1, 3, 3)), v)
	})
}

func TestDropoutZeroPIsIdentity(t *testing.T) {
	e := ops.New(nil)
	tp := NewTape(e)
	x := tp.Const(tensor.Full(2, 3))
	y := tp.Dropout(x, 0, rand.New(rand.NewSource(1)))
	if y != x {
		t.Fatal("p=0 dropout should be a no-op returning the same Var")
	}
}

// The tests below complete the finite-difference audit: every tape op whose
// backward was previously exercised only indirectly (or not at all) gets a
// direct gradcheck here.

func TestMatMulAGradient(t *testing.T) {
	// TestLinearGradients checks MatMul's right operand (the weight); this
	// covers the left operand, whose backward goes through MatMulTB.
	b := tensor.Rand(rand.New(rand.NewSource(41)), 1, 4, 2)
	tapeOpGradCheck(t, "matmul-a", []int{3, 4}, func(tp *Tape, v *Var) *Var {
		return tp.MatMul(v, tp.Const(b))
	})
}

func TestMatMulTBGradients(t *testing.T) {
	// a @ bᵀ: dA = dY @ B, dB = dYᵀ @ A — check both operand roles.
	b := tensor.Rand(rand.New(rand.NewSource(42)), 1, 2, 4)
	tapeOpGradCheck(t, "matmultb-a", []int{3, 4}, func(tp *Tape, v *Var) *Var {
		return tp.MatMulTB(v, tp.Const(b))
	})
	a := tensor.Rand(rand.New(rand.NewSource(43)), 1, 3, 4)
	tapeOpGradCheck(t, "matmultb-b", []int{2, 4}, func(tp *Tape, v *Var) *Var {
		return tp.MatMulTB(tp.Const(a), v)
	})
}

func TestAddGradients(t *testing.T) {
	other := tensor.Rand(rand.New(rand.NewSource(44)), 1, 3, 3)
	tapeOpGradCheck(t, "add-a", []int{3, 3}, func(tp *Tape, v *Var) *Var {
		return tp.Add(v, tp.Const(other))
	})
	tapeOpGradCheck(t, "add-b", []int{3, 3}, func(tp *Tape, v *Var) *Var {
		return tp.Add(tp.Const(other), v)
	})
}

func TestMulGradients(t *testing.T) {
	// Mul appears in every gradcheck loss with a constant right operand;
	// check each operand role directly against a non-constant partner.
	other := tensor.Rand(rand.New(rand.NewSource(45)), 1, 3, 3)
	tapeOpGradCheck(t, "mul-a", []int{3, 3}, func(tp *Tape, v *Var) *Var {
		return tp.Mul(v, tp.Const(other))
	})
	tapeOpGradCheck(t, "mul-b", []int{3, 3}, func(tp *Tape, v *Var) *Var {
		return tp.Mul(tp.Const(other), v)
	})
}

func TestSumAllMeanAllGradients(t *testing.T) {
	tapeOpGradCheck(t, "sumall", []int{3, 4}, func(tp *Tape, v *Var) *Var {
		return tp.SumAll(v)
	})
	tapeOpGradCheck(t, "meanall", []int{3, 4}, func(tp *Tape, v *Var) *Var {
		return tp.MeanAll(v)
	})
}

func TestSumRowsGradient(t *testing.T) {
	tapeOpGradCheck(t, "sumrows", []int{4, 3}, func(tp *Tape, v *Var) *Var {
		return tp.SumRows(v) // (3)
	})
}

func TestReshapeGradient(t *testing.T) {
	tapeOpGradCheck(t, "reshape", []int{2, 6}, func(tp *Tape, v *Var) *Var {
		return tp.Reshape(v, 3, 4)
	})
}

func TestMaxPool2DGradient(t *testing.T) {
	tapeOpGradCheck(t, "maxpool2d", []int{1, 2, 4, 4}, func(tp *Tape, v *Var) *Var {
		return tp.MaxPool2D(v, 2)
	})
}

func TestGatherRowsGradient(t *testing.T) {
	// Duplicate indices exercise the scatter-add accumulation in backward.
	idx := []int32{4, 0, 2, 2}
	tapeOpGradCheck(t, "gatherrows", []int{5, 3}, func(tp *Tape, v *Var) *Var {
		return tp.GatherRows(v, idx)
	})
}

func TestIndexSelectRowsGradient(t *testing.T) {
	idx := []int32{1, 3, 3, 0}
	tapeOpGradCheck(t, "indexselectrows", []int{5, 3}, func(tp *Tape, v *Var) *Var {
		return tp.IndexSelectRows(v, idx)
	})
}

// TestBatchNormForwardAllocations: rebuilding xhat must not allocate per
// element. It did (a variadic At call for the mean and the variance of every
// element: 97 % of DGCN's allocations); now the count is independent of the
// batch size.
func TestBatchNormForwardAllocations(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(12))
	gamma, beta := tensor.Full(1.5, 32), tensor.Rand(rng, 0.5, 32)
	allocs := func(rows int) float64 {
		x := tensor.Rand(rng, 1, rows, 32)
		return testing.AllocsPerRun(5, func() {
			tp := NewTape(e)
			tp.BatchNorm(tp.Const(x), tp.Const(gamma), tp.Const(beta), 1e-5)
		})
	}
	small, large := allocs(8), allocs(256)
	if large > small+8 {
		t.Fatalf("BatchNorm allocations grow with the batch: %.0f at 8 rows, %.0f at 256", small, large)
	}
}
