package autograd

import (
	"math"
	"math/rand"
	"testing"

	"gnnmark/internal/graph"
	"gnnmark/internal/ops"
	"gnnmark/internal/tensor"
)

// gradCheck compares the analytic gradient of param under lossFn against
// central finite differences. lossFn must rebuild the graph from scratch on
// every call (fresh tape) and return the scalar loss value.
func gradCheck(t *testing.T, name string, param *Param, lossFn func() float64, analytic func() *tensor.Tensor, tol float64) {
	t.Helper()
	grad := analytic()
	const h = 1e-2
	step := param.Value.Size()/6 + 1
	for i := 0; i < param.Value.Size(); i += step {
		orig := param.Value.Data()[i]
		param.Value.Data()[i] = orig + h
		up := lossFn()
		param.Value.Data()[i] = orig - h
		down := lossFn()
		param.Value.Data()[i] = orig
		num := (up - down) / (2 * h)
		got := float64(grad.Data()[i])
		scale := math.Max(1, math.Max(math.Abs(num), math.Abs(got)))
		if math.Abs(num-got)/scale > tol {
			t.Fatalf("%s grad[%d] = %g, numerical %g", name, i, got, num)
		}
	}
}

func TestLinearGradients(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(1))
	w := NewParam("w", tensor.Rand(rng, 0.5, 4, 3))
	b := NewParam("b", tensor.Rand(rng, 0.5, 3))
	x := tensor.Rand(rng, 1, 5, 4)
	target := tensor.Rand(rng, 1, 5, 3)

	run := func() (*Tape, *Var) {
		tp := NewTape(e)
		out := tp.AddBias(tp.MatMul(tp.Const(x), tp.FromParam(w)), tp.FromParam(b))
		return tp, tp.MSE(out, target)
	}
	lossOnly := func() float64 {
		_, l := run()
		return float64(l.Value.At(0))
	}
	analytic := func(p *Param) func() *tensor.Tensor {
		return func() *tensor.Tensor {
			p.ZeroGrad()
			w.ZeroGrad()
			b.ZeroGrad()
			tp, l := run()
			tp.Backward(l)
			return p.Grad
		}
	}
	gradCheck(t, "w", w, lossOnly, analytic(w), 2e-2)
	gradCheck(t, "b", b, lossOnly, analytic(b), 2e-2)
}

func TestActivationGradients(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(2))

	acts := map[string]func(tp *Tape, v *Var) *Var{
		"relu":    func(tp *Tape, v *Var) *Var { return tp.ReLU(v) },
		"sigmoid": func(tp *Tape, v *Var) *Var { return tp.Sigmoid(v) },
		"tanh":    func(tp *Tape, v *Var) *Var { return tp.Tanh(v) },
		"softmax": func(tp *Tape, v *Var) *Var { return tp.Softmax(v) },
	}
	for name, act := range acts {
		// Offset values away from the ReLU kink so finite differences hold.
		p := NewParam(name, tensor.Rand(rng, 1, 3, 4))
		for i, v := range p.Value.Data() {
			if v > -0.1 && v < 0.1 {
				p.Value.Data()[i] = 0.3
			}
		}
		weights := tensor.Rand(rng, 1, 3, 4)
		run := func() (*Tape, *Var) {
			tp := NewTape(e)
			out := act(tp, tp.FromParam(p))
			// Weighted sum so the gradient is not uniform.
			return tp, tp.MeanAll(tp.Mul(out, tp.Const(weights)))
		}
		lossOnly := func() float64 { _, l := run(); return float64(l.Value.At(0)) }
		analytic := func() *tensor.Tensor {
			p.ZeroGrad()
			tp, l := run()
			tp.Backward(l)
			return p.Grad
		}
		gradCheck(t, name, p, lossOnly, analytic, 2e-2)
	}
}

func TestPReLUGradients(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(3))
	x := NewParam("x", tensor.Rand(rng, 1, 4, 4))
	alpha := NewParam("alpha", tensor.FromSlice([]float32{0.25}, 1))
	weights := tensor.Rand(rng, 1, 4, 4)

	run := func() (*Tape, *Var) {
		tp := NewTape(e)
		out := tp.PReLU(tp.FromParam(x), tp.FromParam(alpha))
		return tp, tp.MeanAll(tp.Mul(out, tp.Const(weights)))
	}
	lossOnly := func() float64 { _, l := run(); return float64(l.Value.At(0)) }
	mk := func(p *Param) func() *tensor.Tensor {
		return func() *tensor.Tensor {
			x.ZeroGrad()
			alpha.ZeroGrad()
			tp, l := run()
			tp.Backward(l)
			return p.Grad
		}
	}
	gradCheck(t, "prelu-alpha", alpha, lossOnly, mk(alpha), 2e-2)
}

func TestSpMMGradients(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomGNP(rng, 10, 0.3).NormalizeGCN()
	gT := g.Transpose()
	x := NewParam("x", tensor.Rand(rng, 1, 10, 3))
	weights := tensor.Rand(rng, 1, 10, 3)

	run := func() (*Tape, *Var) {
		tp := NewTape(e)
		out := tp.SpMM(g, gT, tp.FromParam(x))
		return tp, tp.MeanAll(tp.Mul(out, tp.Const(weights)))
	}
	lossOnly := func() float64 { _, l := run(); return float64(l.Value.At(0)) }
	analytic := func() *tensor.Tensor {
		x.ZeroGrad()
		tp, l := run()
		tp.Backward(l)
		return x.Grad
	}
	gradCheck(t, "spmm-x", x, lossOnly, analytic, 2e-2)
}

func TestConv2DGradientsViaTape(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(5))
	w := NewParam("w", tensor.Rand(rng, 0.5, 2, 1, 1, 3))
	x := tensor.Rand(rng, 1, 1, 1, 4, 6)
	weights := tensor.Rand(rng, 1, 1, 2, 4, 4)

	run := func() (*Tape, *Var) {
		tp := NewTape(e)
		out := tp.Conv2D(tp.Const(x), tp.FromParam(w), 1, 1, 0, 0)
		return tp, tp.MeanAll(tp.Mul(out, tp.Const(weights)))
	}
	lossOnly := func() float64 { _, l := run(); return float64(l.Value.At(0)) }
	analytic := func() *tensor.Tensor {
		w.ZeroGrad()
		tp, l := run()
		tp.Backward(l)
		return w.Grad
	}
	gradCheck(t, "conv-w", w, lossOnly, analytic, 2e-2)
}

func TestGatherScatterEmbeddingGradients(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(6))
	table := NewParam("emb", tensor.Rand(rng, 1, 6, 3))
	ids := []int32{0, 2, 2, 5}
	weights := tensor.Rand(rng, 1, 4, 3)

	run := func() (*Tape, *Var) {
		tp := NewTape(e)
		out := tp.Embedding(tp.FromParam(table), ids)
		return tp, tp.MeanAll(tp.Mul(out, tp.Const(weights)))
	}
	lossOnly := func() float64 { _, l := run(); return float64(l.Value.At(0)) }
	analytic := func() *tensor.Tensor {
		table.ZeroGrad()
		tp, l := run()
		tp.Backward(l)
		return table.Grad
	}
	gradCheck(t, "embedding", table, lossOnly, analytic, 2e-2)

	// Rows never referenced must have zero gradient.
	table.ZeroGrad()
	tp, l := run()
	tp.Backward(l)
	for j := 0; j < 3; j++ {
		if table.Grad.At(1, j) != 0 || table.Grad.At(3, j) != 0 {
			t.Fatal("unused embedding rows must have zero grad")
		}
	}
}

func TestScatterAddRowsGradient(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(7))
	src := NewParam("src", tensor.Rand(rng, 1, 4, 2))
	idx := []int32{1, 1, 0, 2}
	weights := tensor.Rand(rng, 1, 3, 2)

	run := func() (*Tape, *Var) {
		tp := NewTape(e)
		out := tp.ScatterAddRows(3, tp.FromParam(src), idx)
		return tp, tp.MeanAll(tp.Mul(out, tp.Const(weights)))
	}
	lossOnly := func() float64 { _, l := run(); return float64(l.Value.At(0)) }
	analytic := func() *tensor.Tensor {
		src.ZeroGrad()
		tp, l := run()
		tp.Backward(l)
		return src.Grad
	}
	gradCheck(t, "scatter-src", src, lossOnly, analytic, 2e-2)
}

func TestNormalizationGradients(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(8))
	for _, kind := range []string{"batch", "layer"} {
		x := NewParam("x", tensor.Rand(rng, 1, 6, 4))
		gamma := NewParam("gamma", tensor.Full(1.5, 4))
		beta := NewParam("beta", tensor.Rand(rng, 0.5, 4))
		weights := tensor.Rand(rng, 1, 6, 4)

		run := func() (*Tape, *Var) {
			tp := NewTape(e)
			var out *Var
			if kind == "batch" {
				out = tp.BatchNorm(tp.FromParam(x), tp.FromParam(gamma), tp.FromParam(beta), 1e-5)
			} else {
				out = tp.LayerNorm(tp.FromParam(x), tp.FromParam(gamma), tp.FromParam(beta), 1e-5)
			}
			return tp, tp.MeanAll(tp.Mul(out, tp.Const(weights)))
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
		gradCheck(t, kind+"norm-x", x, lossOnly, mk(x), 5e-2)
		gradCheck(t, kind+"norm-gamma", gamma, lossOnly, mk(gamma), 5e-2)
		gradCheck(t, kind+"norm-beta", beta, lossOnly, mk(beta), 5e-2)
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(9))
	logits := NewParam("logits", tensor.Rand(rng, 1, 5, 3))
	labels := []int32{0, 2, 1, 1, 0}

	run := func() (*Tape, *Var) {
		tp := NewTape(e)
		return tp, tp.CrossEntropy(tp.FromParam(logits), labels)
	}
	lossOnly := func() float64 { _, l := run(); return float64(l.Value.At(0)) }
	analytic := func() *tensor.Tensor {
		logits.ZeroGrad()
		tp, l := run()
		tp.Backward(l)
		return logits.Grad
	}
	gradCheck(t, "xent", logits, lossOnly, analytic, 2e-2)

	// Loss of uniform logits over C classes is log(C).
	tp := NewTape(e)
	l := tp.CrossEntropy(tp.Const(tensor.New(4, 3)), []int32{0, 1, 2, 0})
	if math.Abs(float64(l.Value.At(0))-math.Log(3)) > 1e-5 {
		t.Fatalf("uniform CE = %g, want ln 3", l.Value.At(0))
	}
}

func TestBCEWithLogitsGradient(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(10))
	logits := NewParam("logits", tensor.Rand(rng, 2, 6))
	targets := tensor.FromSlice([]float32{1, 0, 1, 1, 0, 0}, 6)

	run := func() (*Tape, *Var) {
		tp := NewTape(e)
		return tp, tp.BCEWithLogits(tp.FromParam(logits), targets)
	}
	lossOnly := func() float64 { _, l := run(); return float64(l.Value.At(0)) }
	analytic := func() *tensor.Tensor {
		logits.ZeroGrad()
		tp, l := run()
		tp.Backward(l)
		return logits.Grad
	}
	gradCheck(t, "bce", logits, lossOnly, analytic, 2e-2)

	// BCE at logit 0 is ln 2 regardless of target.
	tp := NewTape(e)
	l := tp.BCEWithLogits(tp.Const(tensor.New(4)), tensor.FromSlice([]float32{0, 1, 0, 1}, 4))
	if math.Abs(float64(l.Value.At(0))-math.Ln2) > 1e-6 {
		t.Fatalf("BCE(0) = %g, want ln 2", l.Value.At(0))
	}
}

func TestMaxMarginLoss(t *testing.T) {
	e := ops.New(nil)
	tp := NewTape(e)
	pos := tp.Const(tensor.FromSlice([]float32{2, 0}, 2))
	neg := tp.Const(tensor.FromSlice([]float32{0, 1}, 2))
	l := tp.MaxMargin(pos, neg, 0.5)
	// Example 1: relu(0-2+0.5)=0; example 2: relu(1-0+0.5)=1.5; mean=0.75.
	if math.Abs(float64(l.Value.At(0))-0.75) > 1e-6 {
		t.Fatalf("max margin = %g, want 0.75", l.Value.At(0))
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	e := ops.New(nil)
	tp := NewTape(e)
	v := tp.Const(tensor.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	tp.Backward(v)
}

func TestGradAccumulatesAcrossUses(t *testing.T) {
	// A parameter used twice receives the sum of both paths' gradients.
	e := ops.New(nil)
	p := NewParam("p", tensor.FromSlice([]float32{3}, 1, 1))
	tp := NewTape(e)
	v := tp.FromParam(p)
	sum := tp.Add(v, v) // d(sum)/dp = 2
	loss := sumAll(tp, sum)
	tp.Backward(loss)
	if p.Grad.At(0, 0) != 2 {
		t.Fatalf("grad = %g, want 2", p.Grad.At(0, 0))
	}
}

// sumAll is the sum of x's elements as a scalar loss, written with the
// mean reduction the losses use: its backward hands every element exactly dy.
func sumAll(tp *Tape, x *Var) *Var {
	return tp.Scale(tp.MeanAll(x), float32(x.Value.Size()))
}

func TestConstHasNoGrad(t *testing.T) {
	e := ops.New(nil)
	tp := NewTape(e)
	c := tp.Const(tensor.Full(1, 2))
	loss := sumAll(tp, c)
	tp.Backward(loss)
	if c.grad != nil {
		t.Fatal("const must not accumulate gradient")
	}
}

func TestDropoutGradientMasksMatch(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(11))
	p := NewParam("p", tensor.Full(1, 20, 5))
	tp := NewTape(e)
	out := tp.Dropout(tp.FromParam(p), 0.5, rng)
	loss := sumAll(tp, out)
	tp.Backward(loss)
	// Gradient is 2 where kept (scale 1/(1-p)) and 0 where dropped, matching
	// the forward output exactly (since inputs are all ones).
	for i := range out.Value.Data() {
		if out.Value.Data()[i] != p.Grad.Data()[i] {
			t.Fatal("dropout gradient mask mismatch")
		}
	}
}

func TestTrainingConvergesOnToyProblem(t *testing.T) {
	// End-to-end sanity: a 2-layer MLP fits XOR with plain SGD.
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(12))
	x := tensor.FromSlice([]float32{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int32{0, 1, 1, 0}
	w1 := NewParam("w1", tensor.Rand(rng, 1, 2, 8))
	b1 := NewParam("b1", tensor.Rand(rng, 0.1, 8))
	w2 := NewParam("w2", tensor.Rand(rng, 1, 8, 2))
	b2 := NewParam("b2", tensor.Rand(rng, 0.1, 2))
	params := []*Param{w1, b1, w2, b2}

	var first, last float64
	for epoch := 0; epoch < 400; epoch++ {
		tp := NewTape(e)
		h := tp.Tanh(tp.AddBias(tp.MatMul(tp.Const(x), tp.FromParam(w1)), tp.FromParam(b1)))
		logits := tp.AddBias(tp.MatMul(h, tp.FromParam(w2)), tp.FromParam(b2))
		loss := tp.CrossEntropy(logits, labels)
		if epoch == 0 {
			first = float64(loss.Value.At(0))
		}
		last = float64(loss.Value.At(0))
		for _, p := range params {
			p.ZeroGrad()
		}
		tp.Backward(loss)
		for _, p := range params {
			pd, gd := p.Value.Data(), p.Grad.Data()
			for i := range pd {
				pd[i] -= 0.5 * gd[i]
			}
		}
	}
	if last > first/4 || last > 0.3 {
		t.Fatalf("XOR training did not converge: first %.4f last %.4f", first, last)
	}
}

func TestLSTMCellFusedGradients(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(14))
	gates := NewParam("gates", tensor.Rand(rng, 1, 3, 8)) // B=3, H=2
	cPrev := NewParam("cprev", tensor.Rand(rng, 1, 3, 2))
	wh := tensor.Rand(rng, 1, 3, 2)
	wc := tensor.Rand(rng, 1, 3, 2)

	run := func() (*Tape, *Var) {
		tp := NewTape(e)
		h, c := tp.LSTMCell(tp.FromParam(gates), tp.FromParam(cPrev))
		// Weighted sums of both outputs so both gradient paths are active.
		loss := tp.Add(tp.MeanAll(tp.Mul(h, tp.Const(wh))), tp.MeanAll(tp.Mul(c, tp.Const(wc))))
		return tp, loss
	}
	lossOnly := func() float64 { _, l := run(); return float64(l.Value.At(0)) }
	mk := func(p *Param) func() *tensor.Tensor {
		return func() *tensor.Tensor {
			gates.ZeroGrad()
			cPrev.ZeroGrad()
			tp, l := run()
			tp.Backward(l)
			return p.Grad
		}
	}
	gradCheck(t, "lstm-gates", gates, lossOnly, mk(gates), 2e-2)
	gradCheck(t, "lstm-cprev", cPrev, lossOnly, mk(cPrev), 2e-2)
}

func TestLSTMCellUnusedCellStillPropagates(t *testing.T) {
	// When the final cell state is dropped, gate gradients must still flow
	// through the hidden-state path.
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(15))
	gates := NewParam("gates", tensor.Rand(rng, 1, 2, 8))
	tp := NewTape(e)
	h, _ := tp.LSTMCell(tp.FromParam(gates), tp.Const(tensor.New(2, 2)))
	loss := tp.MeanAll(tp.Mul(h, h))
	tp.Backward(loss)
	if gates.Grad.MaxAbs() == 0 {
		t.Fatal("gate gradients lost when cell output unused")
	}
}
