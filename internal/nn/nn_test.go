package nn

import (
	"math"
	"math/rand"
	"testing"

	"gnnmark/internal/autograd"
	"gnnmark/internal/backend"
	"gnnmark/internal/gpu"
	"gnnmark/internal/ops"
	"gnnmark/internal/tensor"
)

func TestLinearShapesAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, "fc", 4, 3, true)
	if len(l.Params()) != 2 {
		t.Fatal("linear with bias must have 2 params")
	}
	nb := NewLinear(rng, "fc2", 4, 3, false)
	if len(nb.Params()) != 1 {
		t.Fatal("bias-less linear must have 1 param")
	}
	e := ops.New(nil)
	tp := autograd.NewTape(e)
	y := l.Forward(tp, tp.Const(tensor.New(5, 4)))
	if y.Value.Dim(0) != 5 || y.Value.Dim(1) != 3 {
		t.Fatalf("output shape %v", y.Value.Shape())
	}
}

func TestGlorotScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := glorot(rng, 100, 100, 100, 100)
	limit := math.Sqrt(6.0 / 200)
	if w.MaxAbs() > limit+1e-6 {
		t.Fatalf("glorot exceeded limit: %g > %g", w.MaxAbs(), limit)
	}
	if w.MaxAbs() < limit/3 {
		t.Fatal("glorot suspiciously small")
	}
}

func TestBatchNorm1DNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bn := NewBatchNorm1D("bn", 4)
	e := ops.New(nil)
	tp := autograd.NewTape(e)
	x := tensor.Randn(rng, 5, 64, 4)
	y := bn.Forward(tp, tp.Const(x))
	mean, variance := e.BatchNormStats(y.Value)
	for j := 0; j < 4; j++ {
		if math.Abs(float64(mean.At(j))) > 1e-4 {
			t.Fatalf("column %d mean %g", j, mean.At(j))
		}
		if math.Abs(float64(variance.At(j))-1) > 1e-2 {
			t.Fatalf("column %d var %g", j, variance.At(j))
		}
	}
}

func TestLayerNormRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ln := NewLayerNorm("ln", 8)
	e := ops.New(nil)
	tp := autograd.NewTape(e)
	x := tensor.Randn(rng, 3, 10, 8)
	y := ln.Forward(tp, tp.Const(x))
	for i := 0; i < 10; i++ {
		var mean float64
		for _, v := range y.Value.Row(i) {
			mean += float64(v)
		}
		mean /= 8
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("row %d mean %g", i, mean)
		}
	}
}

func TestEmbeddingForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	emb := NewEmbedding(rng, "emb", 10, 6)
	if emb.Table.Value.Dim(1) != 6 {
		t.Fatal("dim wrong")
	}
	e := ops.New(nil)
	tp := autograd.NewTape(e)
	out := emb.Forward(tp, []int32{3, 3, 7})
	if out.Value.Dim(0) != 3 {
		t.Fatal("lookup rows wrong")
	}
	for j := 0; j < 6; j++ {
		if out.Value.At(0, j) != out.Value.At(1, j) {
			t.Fatal("same id must give same row")
		}
	}
}

func TestLSTMCellStep(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cell := NewLSTMCell(rng, "lstm", 4, 8)
	if len(cell.Params()) != 3 {
		t.Fatal("lstm params")
	}
	e := ops.New(nil)
	tp := autograd.NewTape(e)
	x := tp.Const(tensor.Randn(rng, 1, 2, 4))
	h := tp.Const(tensor.Randn(rng, 0.5, 2, 8))
	c := tp.Const(tensor.Randn(rng, 0.5, 2, 8))
	h2, c2 := cell.Step(tp, x, h, c)
	if h2.Value.Dim(1) != 8 || c2.Value.Dim(1) != 8 {
		t.Fatal("state shapes wrong")
	}
	// Hidden state bounded by tanh*sigmoid in (-1,1).
	if h2.Value.MaxAbs() >= 1 {
		t.Fatalf("h out of range: %g", h2.Value.MaxAbs())
	}
	// Gradients flow to all parameters.
	loss := tp.MeanAll(tp.Mul(h2, h2))
	tp.Backward(loss)
	for _, p := range cell.Params() {
		if p.Grad.MaxAbs() == 0 {
			t.Fatalf("no gradient reached %s", p.Name)
		}
	}
}

func TestTreeLSTMCellStep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cell := NewChildSumTreeLSTMCell(rng, "tl", 4, 6)
	if len(cell.Params()) != 6 {
		t.Fatal("treelstm params")
	}
	e := ops.New(nil)
	tp := autograd.NewTape(e)
	x := tp.Const(tensor.Randn(rng, 1, 3, 4))
	hSum := tp.Const(tensor.New(3, 6))
	cTilde := tp.Const(tensor.New(3, 6))
	h, c := cell.NodeStep(tp, x, hSum, cTilde)
	if h.Value.Dim(1) != 6 || c.Value.Dim(1) != 6 {
		t.Fatal("shapes wrong")
	}
	fc := cell.ChildForget(tp, x, h, c)
	if !fc.Value.SameShape(h.Value) {
		t.Fatal("child forget shape wrong")
	}
}

func TestAttentionShapesAndGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	attn := NewMultiHeadAttention(rng, "mha", 16, 4)
	e := ops.New(nil)
	tp := autograd.NewTape(e)
	q := tp.Const(tensor.Randn(rng, 1, 5, 16))
	kv := tp.Const(tensor.Randn(rng, 1, 7, 16))
	out := attn.ForwardMasked(tp, q, kv, nil)
	if out.Value.Dim(0) != 5 || out.Value.Dim(1) != 16 {
		t.Fatalf("attention output %v", out.Value.Shape())
	}
	loss := tp.MeanAll(tp.Mul(out, out))
	tp.Backward(loss)
	for _, p := range attn.Params() {
		if p.Grad.MaxAbs() == 0 {
			t.Fatalf("no gradient reached %s", p.Name)
		}
	}
}

func TestAttentionRejectsBadHeads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewMultiHeadAttention(rand.New(rand.NewSource(1)), "x", 10, 3)
}

func TestTransformerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	blk := NewTransformerBlock(rng, "blk", 8, 2, 16)
	e := ops.New(nil)
	tp := autograd.NewTape(e)
	x := tp.Const(tensor.Randn(rng, 1, 6, 8))
	y := blk.ForwardMasked(tp, x, nil)
	if !y.Value.SameShape(x.Value) {
		t.Fatal("transformer block must preserve shape")
	}
}

func TestConv2DLayerBias(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	conv := NewConv2D(rng, "c", 2, 3, 1, 1)
	conv.B.Value.CopyFrom(tensor.Full(0.5, conv.B.Value.Shape()...))
	conv.W.Value.Zero()
	e := ops.New(nil)
	tp := autograd.NewTape(e)
	x := tp.Const(tensor.Randn(rng, 1, 2, 2, 3, 3))
	y := conv.Forward(tp, x)
	// Zero weights + bias 0.5 -> every output element 0.5.
	for _, v := range y.Value.Data() {
		if math.Abs(float64(v)-0.5) > 1e-6 {
			t.Fatalf("bias broadcast wrong: %g", v)
		}
	}
	if y.Value.Dim(1) != 3 {
		t.Fatal("channel count wrong")
	}
}

func TestSGDReducesLoss(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(11))
	l := NewLinear(rng, "fc", 3, 1, true)
	x := tensor.Randn(rng, 1, 16, 3)
	target := tensor.New(16, 1)
	for i := 0; i < 16; i++ {
		target.Set(x.At(i, 0)*2-x.At(i, 1), i, 0)
	}
	// No optimizer type steps SGD; this drives the backend's momentum SGD
	// kernel over the layer's parameters directly.
	be := backend.NewSerial()
	bufs := make([][]float32, len(l.Params()))
	for i, p := range l.Params() {
		bufs[i] = make([]float32, p.Value.Size())
	}
	var first, last float32
	for it := 0; it < 100; it++ {
		tp := autograd.NewTape(e)
		loss := tp.MSE(l.Forward(tp, tp.Const(x)), target)
		if it == 0 {
			first = loss.Value.At(0)
		}
		last = loss.Value.At(0)
		ZeroGrads(l.Params())
		tp.Backward(loss)
		for i, p := range l.Params() {
			be.SGDStep(p.Value.Data(), p.Grad.Data(), bufs[i], 0.1, 0.9, 0)
		}
	}
	if last > first/10 {
		t.Fatalf("SGD failed to fit linear data: %g -> %g", first, last)
	}
}

func TestAdamReducesLoss(t *testing.T) {
	e := ops.New(nil)
	rng := rand.New(rand.NewSource(12))
	l := NewLinear(rng, "fc", 3, 2, true)
	x := tensor.Randn(rng, 1, 16, 3)
	labels := make([]int32, 16)
	for i := range labels {
		if x.At(i, 0) > 0 {
			labels[i] = 1
		}
	}
	opt := NewAdam(e, l.Params(), 0.05)
	var first, last float32
	for it := 0; it < 150; it++ {
		tp := autograd.NewTape(e)
		loss := tp.CrossEntropy(l.Forward(tp, tp.Const(x)), labels)
		if it == 0 {
			first = loss.Value.At(0)
		}
		last = loss.Value.At(0)
		ZeroGrads(l.Params())
		tp.Backward(loss)
		opt.Step()
	}
	if last > first/3 {
		t.Fatalf("Adam failed to fit: %g -> %g", first, last)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := autograd.NewParam("p", tensor.New(4))
	copy(p.Grad.Data(), []float32{3, 4, 0, 0}) // norm 5
	norm := ClipGradNorm([]*autograd.Param{p}, 1)
	if math.Abs(float64(norm)-5) > 1e-5 {
		t.Fatalf("pre-clip norm %g", norm)
	}
	var sq float64
	for _, g := range p.Grad.Data() {
		sq += float64(g) * float64(g)
	}
	if math.Abs(math.Sqrt(sq)-1) > 1e-5 {
		t.Fatalf("post-clip norm %g", math.Sqrt(sq))
	}
	// Below threshold: untouched.
	copy(p.Grad.Data(), []float32{0.1, 0, 0, 0})
	ClipGradNorm([]*autograd.Param{p}, 1)
	if p.Grad.At(0) != 0.1 {
		t.Fatal("small gradient must not be rescaled")
	}
}

func TestCollectParamsAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := NewLinear(rng, "a", 2, 3, true) // 2*3+3 = 9 params
	b := NewLinear(rng, "b", 3, 1, false)
	ps := CollectParams(a, b)
	if len(ps) != 3 {
		t.Fatalf("collected %d params", len(ps))
	}
	if NumParams(ps) != 9+3 {
		t.Fatalf("NumParams = %d", NumParams(ps))
	}
	if ParamBytes(ps) != 4*12 {
		t.Fatalf("ParamBytes = %d", ParamBytes(ps))
	}
}

func TestOptimizerEmitsKernels(t *testing.T) {
	cfg := gpu.V100()
	cfg.MaxSampledWarps = 1 << 10
	dev := gpu.New(cfg)
	count := 0
	dev.Subscribe(func(ks gpu.KernelStats) {
		if ks.Class == gpu.OpElementWise {
			count++
		}
	})
	e := ops.New(dev)
	p := autograd.NewParam("p", tensor.Full(1, 8))
	opt := NewAdam(e, []*autograd.Param{p}, 0.01)
	opt.Step()
	NewScheduledAdam(opt, Warmup{WarmupSteps: 4}).Step()
	dev.Sync() // the listener hears queued kernels here
	if count != 2 {
		t.Fatalf("optimizer steps emitted %d elementwise kernels, want 2", count)
	}
}

func TestWarmupSchedule(t *testing.T) {
	w := Warmup{WarmupSteps: 100}
	if w.Factor(50) != 0.5 {
		t.Fatalf("mid-warmup factor %g", w.Factor(50))
	}
	if math.Abs(w.Factor(100)-1) > 1e-9 {
		t.Fatalf("end-of-warmup factor %g", w.Factor(100))
	}
	if w.Factor(400) >= w.Factor(100) || w.Factor(400) <= 0 {
		t.Fatalf("post-warmup decay wrong: %g", w.Factor(400))
	}
}

func TestScheduledAdamAppliesFactor(t *testing.T) {
	e := ops.New(nil)
	p := autograd.NewParam("p", tensor.Full(1, 4))
	inner := NewAdam(e, []*autograd.Param{p}, 0.1)
	opt := NewScheduledAdam(inner, Warmup{WarmupSteps: 4})
	copy(p.Grad.Data(), []float32{1, 1, 1, 1})
	opt.Step()
	if math.Abs(float64(opt.Adam.LR)-0.025) > 1e-6 {
		t.Fatalf("step 1 LR = %g, want base/4", opt.Adam.LR)
	}
	opt.Step()
	opt.Step()
	opt.Step()
	if math.Abs(float64(opt.Adam.LR)-0.1) > 1e-6 {
		t.Fatalf("step 4 LR = %g, want full base", opt.Adam.LR)
	}
	if p.Value.At(0) >= 1 {
		t.Fatal("parameter did not move")
	}
}
