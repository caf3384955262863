package ops

import (
	"math"
	"math/rand"
	"testing"

	"gnnmark/internal/tensor"
)

func TestGLU4DMatchesManual(t *testing.T) {
	e := New(nil)
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 2, 6, 3, 4) // (B=2, 2C=6, S=3, T=4)
	out, gate := e.GLU4D(x)
	if out.Dim(1) != 3 || !out.SameShape(gate) {
		t.Fatalf("GLU shapes: %v %v", out.Shape(), gate.Shape())
	}
	for b := 0; b < 2; b++ {
		for c := 0; c < 3; c++ {
			for s := 0; s < 3; s++ {
				for tw := 0; tw < 4; tw++ {
					a := float64(x.At(b, c, s, tw))
					g := 1 / (1 + math.Exp(-float64(x.At(b, c+3, s, tw))))
					want := a * g
					if math.Abs(float64(out.At(b, c, s, tw))-want) > 1e-5 {
						t.Fatalf("GLU(%d,%d,%d,%d) = %g, want %g", b, c, s, tw, out.At(b, c, s, tw), want)
					}
				}
			}
		}
	}
}

func TestGLU4DBackwardNumerically(t *testing.T) {
	e := New(nil)
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 1, 1, 4, 2, 3)
	out, gate := e.GLU4D(x)
	dy := tensor.Full(1, out.Shape()...)
	dx := e.GLU4DBackward(x, gate, dy)

	loss := func() float64 {
		o, _ := e.GLU4D(x)
		return sum(o)
	}
	const h = 1e-3
	for i := 0; i < x.Size(); i += 3 {
		orig := x.Data()[i]
		x.Data()[i] = orig + h
		up := loss()
		x.Data()[i] = orig - h
		down := loss()
		x.Data()[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-float64(dx.Data()[i])) > 1e-2 {
			t.Fatalf("dGLU[%d] = %g, numerical %g", i, dx.Data()[i], num)
		}
	}
}

func TestGLU4DRejectsOddChannels(t *testing.T) {
	e := New(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	e.GLU4D(tensor.New(1, 3, 2, 2))
}

func TestBatchNorm2DNormalizesChannels(t *testing.T) {
	e := New(nil)
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 2, 4, 3, 8, 8)
	gamma := tensor.Full(1, 3)
	beta := tensor.New(3)
	out, xhat, variance := e.BatchNorm2DForward(x, gamma, beta, 1e-5)
	if !out.SameShape(x) || !xhat.SameShape(x) || variance.Size() != 3 {
		t.Fatal("shapes wrong")
	}
	// Each channel of the output has ~0 mean and ~1 variance.
	for c := 0; c < 3; c++ {
		var sum, sq float64
		n := 0
		for b := 0; b < 4; b++ {
			for s := 0; s < 8; s++ {
				for w := 0; w < 8; w++ {
					v := float64(out.At(b, c, s, w))
					sum += v
					sq += v * v
					n++
				}
			}
		}
		mean := sum / float64(n)
		varr := sq/float64(n) - mean*mean
		if math.Abs(mean) > 1e-4 || math.Abs(varr-1) > 1e-2 {
			t.Fatalf("channel %d: mean %g var %g", c, mean, varr)
		}
	}
}

func TestBatchNorm2DBackwardNumerically(t *testing.T) {
	e := New(nil)
	rng := rand.New(rand.NewSource(4))
	x := tensor.Randn(rng, 1, 2, 2, 3, 2)
	gamma := tensor.Full(1.3, 2)
	beta := tensor.Full(0.2, 2)
	w := tensor.Randn(rng, 1, 2, 2, 3, 2)

	loss := func() float64 {
		out, _, _ := e.BatchNorm2DForward(x, gamma, beta, 1e-5)
		var s float64
		for i, v := range out.Data() {
			s += float64(v) * float64(w.Data()[i])
		}
		return s
	}
	_, xhat, variance := e.BatchNorm2DForward(x, gamma, beta, 1e-5)
	dx, dgamma, dbeta := e.BatchNorm2DBackward(xhat, w, variance, gamma, 1e-5)

	const h = 1e-3
	for i := 0; i < x.Size(); i += 4 {
		orig := x.Data()[i]
		x.Data()[i] = orig + h
		up := loss()
		x.Data()[i] = orig - h
		down := loss()
		x.Data()[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-float64(dx.Data()[i])) > 2e-2 {
			t.Fatalf("dx[%d] = %g, numerical %g", i, dx.Data()[i], num)
		}
	}
	for c := 0; c < 2; c++ {
		orig := gamma.Data()[c]
		gamma.Data()[c] = orig + h
		up := loss()
		gamma.Data()[c] = orig - h
		down := loss()
		gamma.Data()[c] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-float64(dgamma.Data()[c])) > 2e-2 {
			t.Fatalf("dgamma[%d] = %g, numerical %g", c, dgamma.Data()[c], num)
		}
		origB := beta.Data()[c]
		beta.Data()[c] = origB + h
		upB := loss()
		beta.Data()[c] = origB - h
		downB := loss()
		beta.Data()[c] = origB
		numB := (upB - downB) / (2 * h)
		if math.Abs(numB-float64(dbeta.Data()[c])) > 2e-2 {
			t.Fatalf("dbeta[%d] = %g, numerical %g", c, dbeta.Data()[c], numB)
		}
	}
}

func TestLSTMCellForwardGateMath(t *testing.T) {
	e := New(nil)
	// Zero gates, zero cell: i=f=o=0.5, g=0 -> c=0, h=0.
	gates := tensor.New(1, 8)
	cPrev := tensor.New(1, 2)
	h, c, cache := e.LSTMCellForward(gates, cPrev)
	if h.At(0, 0) != 0 || c.At(0, 0) != 0 {
		t.Fatalf("zero-input LSTM: h=%g c=%g", h.At(0, 0), c.At(0, 0))
	}
	if cache.I.At(0, 0) != 0.5 || cache.F.At(0, 1) != 0.5 {
		t.Fatal("gate activations wrong")
	}
	// Saturated forget gate carries the cell through.
	gates2 := tensor.New(1, 8)
	gates2.Set(100, 0, 2) // f gate -> 1
	gates2.Set(-100, 0, 0)
	gates2.Set(-100, 0, 1) // hmm layout: [i i f f g g o o] for H=2
	cPrev2 := tensor.FromSlice([]float32{3, -2}, 1, 2)
	_, c2, _ := e.LSTMCellForward(gates2, cPrev2)
	// f for unit 0 = sigmoid(gates[2]) = 1 -> c ~= cPrev (i*g adds ~0).
	if math.Abs(float64(c2.At(0, 0))-3) > 0.1 {
		t.Fatalf("forget gate did not carry cell: %g", c2.At(0, 0))
	}
}

func TestLSTMCellShapePanics(t *testing.T) {
	e := New(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	e.LSTMCellForward(tensor.New(1, 6), tensor.New(1, 2)) // 6 != 4*2
}

func TestPermute4DRoundTrip(t *testing.T) {
	e := New(nil)
	rng := rand.New(rand.NewSource(5))
	x := tensor.Randn(rng, 1, 2, 3, 4, 5)
	perm := [4]int{2, 0, 3, 1}
	y := e.Permute4D(x, perm)
	if y.Dim(0) != 4 || y.Dim(1) != 2 || y.Dim(2) != 5 || y.Dim(3) != 3 {
		t.Fatalf("permuted shape %v", y.Shape())
	}
	// Value check: y[a,b,c,d] = x at the permuted coordinates.
	if y.At(1, 0, 2, 1) != x.At(0, 1, 1, 2) {
		t.Fatal("permute moved values incorrectly")
	}
	z := e.Permute4D(y, InversePerm4(perm))
	for i := range x.Data() {
		if z.Data()[i] != x.Data()[i] {
			t.Fatal("inverse permutation did not restore")
		}
	}
}

func TestPermute4DRejectsBadPerm(t *testing.T) {
	e := New(nil)
	for _, perm := range [][4]int{{0, 0, 1, 2}, {0, 1, 2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("perm %v should panic", perm)
				}
			}()
			e.Permute4D(tensor.New(1, 1, 1, 1), perm)
		}()
	}
}

func TestSliceAndPadCols(t *testing.T) {
	e := New(nil)
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	s := e.SliceCols2D(x, 1, 3)
	if s.Dim(1) != 2 || s.At(0, 0) != 2 || s.At(1, 1) != 6 {
		t.Fatalf("slice wrong: %v", s.Data())
	}
	p := e.PadColsGrad(s, 3, 1)
	if p.At(0, 0) != 0 || p.At(0, 1) != 2 || p.At(1, 2) != 6 {
		t.Fatalf("pad wrong: %v", p.Data())
	}
}

func TestConcatSplitRows(t *testing.T) {
	e := New(nil)
	a := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := tensor.FromSlice([]float32{5, 6}, 1, 2)
	c := e.ConcatRows2D(a, b)
	if c.Dim(0) != 3 || c.At(2, 1) != 6 {
		t.Fatalf("concat rows wrong: %v", c.Data())
	}
	a2, b2 := e.SplitRows(c, 2)
	if a2.At(1, 1) != 4 || b2.At(0, 0) != 5 {
		t.Fatal("split rows wrong")
	}
}

func TestAddChannelBiasAndGrad(t *testing.T) {
	e := New(nil)
	x := tensor.New(1, 2, 2, 2)
	bias := tensor.FromSlice([]float32{1, -1}, 2)
	y := e.AddChannelBias(x, bias)
	if y.At(0, 0, 1, 1) != 1 || y.At(0, 1, 0, 0) != -1 {
		t.Fatal("channel bias broadcast wrong")
	}
	dy := tensor.Full(1, 1, 2, 2, 2)
	g := e.ChannelBiasGrad(dy)
	if g.At(0) != 4 || g.At(1) != 4 {
		t.Fatalf("bias grad = %v, want [4 4]", g.Data())
	}
}

func TestBCEWithLogitsOps(t *testing.T) {
	e := New(nil)
	logits := tensor.FromSlice([]float32{0, 2, -2}, 3)
	targets := tensor.FromSlice([]float32{1, 1, 0}, 3)
	lv := e.BCEWithLogitsForward(logits, targets)
	if math.Abs(float64(lv.At(0))-math.Ln2) > 1e-6 {
		t.Fatalf("BCE(0,1) = %g, want ln 2", lv.At(0))
	}
	// BCE(2,1) = log(1+e^-2); BCE(-2,0) the same by symmetry.
	want := math.Log(1 + math.Exp(-2))
	if math.Abs(float64(lv.At(1))-want) > 1e-5 || math.Abs(float64(lv.At(2))-want) > 1e-5 {
		t.Fatalf("BCE values %v", lv.Data())
	}
	d := e.BCEWithLogitsBackward(logits, targets, 1)
	if math.Abs(float64(d.At(0))-(0.5-1)) > 1e-6 {
		t.Fatalf("dBCE(0,1) = %g, want -0.5", d.At(0))
	}
}

func TestSGDAndAdamNumerics(t *testing.T) {
	e := New(nil)
	// SGD without momentum: p -= lr*g. No optimizer of the engine steps
	// SGD, so this drives the backend kernel it would lower to.
	p := tensor.FromSlice([]float32{1, 2}, 2)
	g := tensor.FromSlice([]float32{10, -10}, 2)
	e.be.SGDStep(p.Data(), g.Data(), nil, 0.1, 0, 0)
	if p.At(0) != 0 || p.At(1) != 3 {
		t.Fatalf("SGD step wrong: %v", p.Data())
	}
	// Weight decay pulls toward zero.
	p2 := tensor.FromSlice([]float32{1}, 1)
	e.be.SGDStep(p2.Data(), make([]float32, 1), nil, 0.1, 0, 1.0)
	if p2.At(0) >= 1 {
		t.Fatal("weight decay had no effect")
	}
	// Adam first step moves by ~lr in the gradient direction.
	p3 := tensor.New(1)
	g3 := tensor.FromSlice([]float32{5}, 1)
	m := tensor.New(1)
	v := tensor.New(1)
	e.AdamStep(p3, g3, m, v, 0.01, 0.9, 0.999, 1e-8, 1)
	if math.Abs(float64(p3.At(0))+0.01) > 1e-4 {
		t.Fatalf("Adam step = %g, want ~-0.01", p3.At(0))
	}
}

func TestMaxPool2DForward(t *testing.T) {
	e := New(nil)
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y, arg := e.MaxPool2D(x, 2)
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if y.Data()[i] != w {
			t.Fatalf("pool[%d] = %g, want %g", i, y.Data()[i], w)
		}
	}
	if arg[0] != 5 || arg[3] != 15 {
		t.Fatalf("argmax = %v", arg)
	}
}

func TestMaxPool2DBackwardNumerically(t *testing.T) {
	e := New(nil)
	rng := rand.New(rand.NewSource(9))
	x := tensor.Randn(rng, 1, 1, 2, 4, 4)
	y, arg := e.MaxPool2D(x, 2)
	dy := tensor.Full(1, y.Shape()...)
	dx := e.MaxPool2DBackward(dy, arg, x.Shape())
	loss := func() float64 {
		o, _ := e.MaxPool2D(x, 2)
		return sum(o)
	}
	const h = 1e-3
	for i := 0; i < x.Size(); i += 5 {
		orig := x.Data()[i]
		x.Data()[i] = orig + h
		up := loss()
		x.Data()[i] = orig - h
		down := loss()
		x.Data()[i] = orig
		num := (up - down) / (2 * h)
		if math.Abs(num-float64(dx.Data()[i])) > 1e-2 {
			t.Fatalf("dpool[%d] = %g, numerical %g", i, dx.Data()[i], num)
		}
	}
}

func TestMaxPool2DRejectsOversizedWindow(t *testing.T) {
	e := New(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	e.MaxPool2D(tensor.New(1, 1, 2, 2), 3)
}
