package backend

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
)

// Property tests: a tiled backend must reproduce the serial backend bit for
// bit on every kernel, because every parallel decomposition preserves the
// serial per-element accumulation order. Each test runs twice (eachTiled):
// against the shipped cutoff, which only the largest shape of each table
// clears, and against a cutoff of one work unit, which tiles every shape —
// n below the worker count, n not divisible by it, f == 1.

func TestMain(m *testing.M) {
	// The worker pool sizes itself to GOMAXPROCS on first use. Force at
	// least 4 workers so parallelFor really splits work (and the race
	// detector sees real concurrency) even on single-core CI hosts.
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

func rnd(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

func clone(x []float32) []float32 {
	out := make([]float32, len(x))
	copy(out, x)
	return out
}

// bitsEqual fails the test unless got and want hold the same float32 bit
// patterns.
func bitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: index %d: got %v (%#08x), oracle %v (%#08x)", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// eachTiled runs f once per tiled arm, each against the serial reference,
// under every micro-kernel body (eachBody).
func eachTiled(t *testing.T, f func(t *testing.T, s, p Backend)) {
	for _, arm := range []struct {
		name string
		be   Backend
	}{{"parallel", NewParallel()}, {"cutoff1", cpuBackend{cutoff: 1}}} {
		t.Run(arm.name, func(t *testing.T) {
			eachBody(t, func() { f(t, NewSerial(), arm.be) })
		})
	}
}

// eachBody runs f under every body of the dense micro-kernels this machine
// has: the one init detected and, when that is the vector one, the Go loops
// too, by flipping the detection result. Kernels run only inside f, and a
// tiled kernel's workers are ordered after the flip by the task channel.
func eachBody(t *testing.T, f func()) {
	t.Helper()
	detected := useAVX2
	defer func() {
		if t.Failed() {
			t.Logf("dense kernel body: %s", DenseKernel())
		}
		useAVX2 = detected
	}()
	for _, vec := range []bool{detected, false} {
		useAVX2 = vec
		f()
		if !vec {
			break
		}
	}
}

func compareInt32(t *testing.T, name string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: index %d: parallel %d, serial %d", name, i, got[i], want[i])
		}
	}
}

// gemmShapes spans empty, 1-row, ragged (non-multiple-of-tile), sub-cutoff,
// and above-cutoff (m*n*k >= minParallelWork with m >= pool size) GEMMs.
var gemmShapes = [][3]int{
	{0, 4, 4}, {4, 0, 4}, {4, 4, 0},
	{1, 1, 1}, {1, 33, 17},
	{7, 5, 3}, {33, 65, 17},
	{64, 64, 64}, {65, 33, 127},
}

func TestMatMulVariants(t *testing.T) { eachTiled(t, testMatMulVariants) }

func testMatMulVariants(t *testing.T, s, p Backend) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range gemmShapes {
		m, n, k := sh[0], sh[1], sh[2]
		a := rnd(rng, m*k)
		b := rnd(rng, k*n)
		at := rnd(rng, k*m) // MatMulTA input stored (k,m)
		bt := rnd(rng, n*k) // MatMulTB input stored (n,k)
		base := rnd(rng, m*n)

		outS, outP := clone(base), clone(base)
		s.MatMul(a, b, outS, m, n, k)
		p.MatMul(a, b, outP, m, n, k)
		bitsEqual(t, "MatMul", outP, outS)

		outS, outP = clone(base), clone(base)
		s.MatMulTA(at, b, outS, m, n, k)
		p.MatMulTA(at, b, outP, m, n, k)
		bitsEqual(t, "MatMulTA", outP, outS)

		outS, outP = clone(base), clone(base)
		s.MatMulTB(a, bt, outS, m, n, k)
		p.MatMulTB(a, bt, outP, m, n, k)
		bitsEqual(t, "MatMulTB", outP, outS)
	}
}

// randCSR builds a CSR with roughly deg entries per row (colliding columns
// allowed, matching real adjacency usage).
func randCSR(rng *rand.Rand, rows, cols, deg int) (rowPtr, colIdx []int32) {
	rowPtr = make([]int32, rows+1)
	for i := 0; i < rows; i++ {
		rowPtr[i+1] = rowPtr[i] + int32(rng.Intn(deg+1))
	}
	colIdx = make([]int32, rowPtr[rows])
	for i := range colIdx {
		colIdx[i] = int32(rng.Intn(cols))
	}
	return rowPtr, colIdx
}

func TestSpMM(t *testing.T) { eachTiled(t, testSpMM) }

func testSpMM(t *testing.T, s, p Backend) {
	rng := rand.New(rand.NewSource(8))
	for _, sh := range [][2]int{{0, 4}, {1, 1}, {7, 33}, {300, 128}} {
		rows, f := sh[0], sh[1]
		rowPtr, colIdx := randCSR(rng, rows, rows+1, 9)
		x := rnd(rng, (rows+1)*f)
		vals := rnd(rng, len(colIdx))
		for _, withVals := range []bool{false, true} {
			v := vals
			if !withVals {
				v = nil
			}
			base := rnd(rng, rows*f)
			outS, outP := clone(base), clone(base)
			s.SpMM(rowPtr, colIdx, v, x, outS, rows, f)
			p.SpMM(rowPtr, colIdx, v, x, outP, rows, f)
			bitsEqual(t, "SpMM", outP, outS)
		}
	}
}

var convShapes = []ConvParams{
	{N: 1, Cin: 1, H: 3, W: 3, Cout: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1, OH: 3, OW: 3},
	{N: 2, Cin: 3, H: 5, W: 5, Cout: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, OH: 5, OW: 5},
	{N: 2, Cin: 4, H: 9, W: 7, Cout: 5, KH: 3, KW: 2, StrideH: 2, StrideW: 2, PadH: 1, PadW: 0, OH: 5, OW: 3},
	// Above the work cutoff: 4*8*16*16*8*3*3 macs >> 1<<15.
	{N: 4, Cin: 8, H: 16, W: 16, Cout: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, OH: 16, OW: 16},
}

func TestConv2DFamily(t *testing.T) { eachTiled(t, testConv2DFamily) }

func testConv2DFamily(t *testing.T, s, p Backend) {
	rng := rand.New(rand.NewSource(9))
	for _, cp := range convShapes {
		x := rnd(rng, cp.N*cp.Cin*cp.H*cp.W)
		w := rnd(rng, cp.Cout*cp.Cin*cp.KH*cp.KW)
		dy := rnd(rng, cp.N*cp.Cout*cp.OH*cp.OW)

		outS := make([]float32, len(dy))
		outP := make([]float32, len(dy))
		s.Conv2D(x, w, outS, cp)
		p.Conv2D(x, w, outP, cp)
		bitsEqual(t, "Conv2D", outP, outS)

		dxS := make([]float32, len(x))
		dxP := make([]float32, len(x))
		s.Conv2DGradInput(dy, w, dxS, cp)
		p.Conv2DGradInput(dy, w, dxP, cp)
		bitsEqual(t, "Conv2DGradInput", dxP, dxS)

		dwS := make([]float32, len(w))
		dwP := make([]float32, len(w))
		s.Conv2DGradWeight(x, dy, dwS, cp)
		p.Conv2DGradWeight(x, dy, dwP, cp)
		bitsEqual(t, "Conv2DGradWeight", dwP, dwS)
	}
}

func TestMaxPool2D(t *testing.T) { eachTiled(t, testMaxPool2D) }

func testMaxPool2D(t *testing.T, s, p Backend) {
	rng := rand.New(rand.NewSource(10))
	for _, sh := range [][5]int{{1, 1, 2, 2, 2}, {2, 3, 8, 8, 2}, {4, 8, 32, 32, 2}} {
		n, c, h, w, k := sh[0], sh[1], sh[2], sh[3], sh[4]
		x := rnd(rng, n*c*h*w)
		oh, ow := h/k, w/k
		outS := make([]float32, n*c*oh*ow)
		outP := make([]float32, n*c*oh*ow)
		argS := make([]int32, len(outS))
		argP := make([]int32, len(outP))
		s.MaxPool2D(x, outS, argS, n, c, h, w, k)
		p.MaxPool2D(x, outP, argP, n, c, h, w, k)
		bitsEqual(t, "MaxPool2D", outP, outS)
		compareInt32(t, "MaxPool2D/arg", argP, argS)
	}
}

func TestGatherScatter(t *testing.T) { eachTiled(t, testGatherScatter) }

func testGatherScatter(t *testing.T, s, p Backend) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range [][3]int{{0, 4, 3}, {1, 1, 1}, {9, 33, 40}, {500, 64, 600}} {
		nIdx, f, nRows := sh[0], sh[1], sh[2]
		x := rnd(rng, nRows*f)
		idx := make([]int32, nIdx)
		for i := range idx {
			idx[i] = int32(rng.Intn(nRows)) // collisions expected
		}

		outS := make([]float32, nIdx*f)
		outP := make([]float32, nIdx*f)
		s.GatherRows(x, outS, idx, f)
		p.GatherRows(x, outP, idx, f)
		bitsEqual(t, "GatherRows", outP, outS)

		base := rnd(rng, nRows*f)
		src := rnd(rng, nIdx*f)
		dstS, dstP := clone(base), clone(base)
		s.ScatterAddRows(dstS, src, idx, f)
		p.ScatterAddRows(dstP, src, idx, f)
		bitsEqual(t, "ScatterAddRows", dstP, dstS)
	}

	// Flat ScatterAdd with colliding indices (serial by contract).
	dstS := rnd(rng, 50)
	dstP := clone(dstS)
	src := rnd(rng, 400)
	idx := make([]int32, len(src))
	for i := range idx {
		idx[i] = int32(rng.Intn(len(dstS)))
	}
	s.ScatterAdd(dstS, src, idx)
	p.ScatterAdd(dstP, src, idx)
	bitsEqual(t, "ScatterAdd", dstP, dstS)
}

// rowShapes covers reductions and row-parallel kernels: empty, one row, one
// column, ragged, and above-cutoff sizes.
var rowShapes = [][2]int{{0, 5}, {5, 0}, {1, 1}, {1, 129}, {17, 1}, {33, 65}, {700, 64}}

func TestReductions(t *testing.T) { eachTiled(t, testReductions) }

func testReductions(t *testing.T, s, p Backend) {
	rng := rand.New(rand.NewSource(12))
	for _, sh := range rowShapes {
		n, f := sh[0], sh[1]
		x := rnd(rng, n*f)

		if g, w := p.SumAll(x), s.SumAll(x); g != w {
			t.Fatalf("SumAll: parallel %v, serial %v", g, w)
		}

		baseF := rnd(rng, f)
		outS, outP := clone(baseF), clone(baseF)
		s.SumRows(x, outS, n, f)
		p.SumRows(x, outP, n, f)
		bitsEqual(t, "SumRows", outP, outS)

		outS = make([]float32, n)
		outP = make([]float32, n)
		s.SumCols(x, outS, n, f)
		p.SumCols(x, outP, n, f)
		bitsEqual(t, "SumCols", outP, outS)

		if f > 0 {
			maxS := make([]float32, n)
			maxP := make([]float32, n)
			argS := make([]int32, n)
			argP := make([]int32, n)
			s.MaxCols(x, maxS, argS, n, f)
			p.MaxCols(x, maxP, argP, n, f)
			bitsEqual(t, "MaxCols", maxP, maxS)
			compareInt32(t, "MaxCols/arg", argP, argS)

			smS := make([]float32, n*f)
			smP := make([]float32, n*f)
			s.Softmax(x, smS, n, f)
			p.Softmax(x, smP, n, f)
			bitsEqual(t, "Softmax", smP, smS)

			s.LogSoftmax(x, smS, n, f)
			p.LogSoftmax(x, smP, n, f)
			bitsEqual(t, "LogSoftmax", smP, smS)
		}
	}
}

func TestElementWise(t *testing.T) { eachTiled(t, testElementWise) }

func testElementWise(t *testing.T, s, p Backend) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 1023, 1<<16 + 3} {
		a := rnd(rng, n)
		b := rnd(rng, n)
		outS := make([]float32, n)
		outP := make([]float32, n)

		binary := []struct {
			name string
			f    func(be Backend, out []float32)
		}{
			{"Add", func(be Backend, out []float32) { be.Add(out, a, b) }},
			{"Sub", func(be Backend, out []float32) { be.Sub(out, a, b) }},
			{"Mul", func(be Backend, out []float32) { be.Mul(out, a, b) }},
			{"Scale", func(be Backend, out []float32) { be.Scale(out, a, 0.37) }},
			{"AddScalar", func(be Backend, out []float32) { be.AddScalar(out, a, -1.5) }},
			{"AddScaled", func(be Backend, out []float32) { be.AddScaled(out, a, b, 0.25) }},
			{"ReLU", func(be Backend, out []float32) { be.ReLU(out, a) }},
			{"ReLUBackward", func(be Backend, out []float32) { be.ReLUBackward(out, a, b) }},
			{"PReLU", func(be Backend, out []float32) { be.PReLU(out, a, 0.1) }},
			{"Sigmoid", func(be Backend, out []float32) { be.Sigmoid(out, a) }},
			{"Tanh", func(be Backend, out []float32) { be.Tanh(out, a) }},
			{"Exp", func(be Backend, out []float32) { be.Exp(out, a) }},
			{"BCEWithLogits", func(be Backend, out []float32) { be.BCEWithLogits(a, b, out) }},
			{"BCEWithLogitsBackward", func(be Backend, out []float32) { be.BCEWithLogitsBackward(a, b, out, 0.5) }},
		}
		for _, op := range binary {
			op.f(s, outS)
			op.f(p, outP)
			bitsEqual(t, op.name, outP, outS)
		}
	}
}

func TestDropout(t *testing.T) { eachTiled(t, testDropout) }

func testDropout(t *testing.T, s, p Backend) {
	x := rnd(rand.New(rand.NewSource(14)), 4096)
	outS := make([]float32, len(x))
	outP := make([]float32, len(x))
	maskS := make([]float32, len(x))
	maskP := make([]float32, len(x))
	// Same seed on both sides: the rng stream is part of the contract, so
	// the parallel backend must consume it in the same index order.
	s.Dropout(x, outS, maskS, 0.3, rand.New(rand.NewSource(99)))
	p.Dropout(x, outP, maskP, 0.3, rand.New(rand.NewSource(99)))
	bitsEqual(t, "Dropout", outP, outS)
	bitsEqual(t, "Dropout/mask", maskP, maskS)
}

func TestLayout(t *testing.T) { eachTiled(t, testLayout) }

func testLayout(t *testing.T, s, p Backend) {
	rng := rand.New(rand.NewSource(15))
	for _, sh := range rowShapes {
		n, f := sh[0], sh[1]
		x := rnd(rng, n*f)
		bias := rnd(rng, f)

		outS := make([]float32, n*f)
		outP := make([]float32, n*f)
		s.AddBiasRows(outS, x, bias, n, f)
		p.AddBiasRows(outP, x, bias, n, f)
		bitsEqual(t, "AddBiasRows", outP, outS)

		s.Transpose2D(outS, x, n, f)
		p.Transpose2D(outP, x, n, f)
		bitsEqual(t, "Transpose2D", outP, outS)
	}

	in := [4]int{3, 4, 5, 6}
	perm := [4]int{2, 0, 3, 1}
	x := rnd(rng, in[0]*in[1]*in[2]*in[3])
	outS := make([]float32, len(x))
	outP := make([]float32, len(x))
	s.Permute4D(x, outS, in, perm)
	p.Permute4D(x, outP, in, perm)
	bitsEqual(t, "Permute4D", outP, outS)

	for _, sh := range [][3]int{{1, 1, 1}, {2, 3, 10}, {4, 16, 1024}} {
		n, c, plane := sh[0], sh[1], sh[2]
		x := rnd(rng, n*c*plane)
		bias := rnd(rng, c)
		outS := make([]float32, len(x))
		outP := make([]float32, len(x))
		s.AddChannelBias(outS, x, bias, n, c, plane)
		p.AddChannelBias(outP, x, bias, n, c, plane)
		bitsEqual(t, "AddChannelBias", outP, outS)

		gS := rnd(rng, c)
		gP := clone(gS)
		s.ChannelBiasGrad(x, gS, n, c, plane)
		p.ChannelBiasGrad(x, gP, n, c, plane)
		bitsEqual(t, "ChannelBiasGrad", gP, gS)
	}
}

func TestNorms(t *testing.T) { eachTiled(t, testNorms) }

func testNorms(t *testing.T, s, p Backend) {
	rng := rand.New(rand.NewSource(16))
	const eps = 1e-5
	for _, sh := range [][2]int{{1, 1}, {4, 7}, {33, 65}, {600, 64}} {
		n, f := sh[0], sh[1]
		x := rnd(rng, n*f)
		gamma := rnd(rng, f)
		beta := rnd(rng, f)
		dy := rnd(rng, n*f)

		meanS := make([]float32, f)
		meanP := make([]float32, f)
		varS := make([]float32, f)
		varP := make([]float32, f)
		s.BatchNormStats(x, meanS, varS, n, f)
		p.BatchNormStats(x, meanP, varP, n, f)
		bitsEqual(t, "BatchNormStats/mean", meanP, meanS)
		bitsEqual(t, "BatchNormStats/var", varP, varS)

		outS := make([]float32, n*f)
		outP := make([]float32, n*f)
		s.BatchNormApply(x, meanS, varS, gamma, beta, outS, n, f, eps)
		p.BatchNormApply(x, meanS, varS, gamma, beta, outP, n, f, eps)
		bitsEqual(t, "BatchNormApply", outP, outS)

		xhat := rnd(rng, n*f)
		dxS := make([]float32, n*f)
		dxP := make([]float32, n*f)
		dgS := make([]float32, f)
		dgP := make([]float32, f)
		dbS := make([]float32, f)
		dbP := make([]float32, f)
		s.BatchNormBackward(xhat, dy, varS, gamma, dxS, dgS, dbS, n, f, eps)
		p.BatchNormBackward(xhat, dy, varS, gamma, dxP, dgP, dbP, n, f, eps)
		bitsEqual(t, "BatchNormBackward/dx", dxP, dxS)
		bitsEqual(t, "BatchNormBackward/dgamma", dgP, dgS)
		bitsEqual(t, "BatchNormBackward/dbeta", dbP, dbS)

		xhS := make([]float32, n*f)
		xhP := make([]float32, n*f)
		invS := make([]float32, n)
		invP := make([]float32, n)
		s.LayerNormForward(x, gamma, beta, outS, xhS, invS, n, f, eps)
		p.LayerNormForward(x, gamma, beta, outP, xhP, invP, n, f, eps)
		bitsEqual(t, "LayerNormForward", outP, outS)
		bitsEqual(t, "LayerNormForward/xhat", xhP, xhS)
		bitsEqual(t, "LayerNormForward/invStd", invP, invS)

		for i := range dxS {
			dxS[i], dxP[i] = 0, 0
		}
		for i := range dgS {
			dgS[i], dgP[i], dbS[i], dbP[i] = 0, 0, 0, 0
		}
		s.LayerNormBackward(xhS, invS, dy, gamma, dxS, dgS, dbS, n, f)
		p.LayerNormBackward(xhS, invS, dy, gamma, dxP, dgP, dbP, n, f)
		bitsEqual(t, "LayerNormBackward/dx", dxP, dxS)
		bitsEqual(t, "LayerNormBackward/dgamma", dgP, dgS)
		bitsEqual(t, "LayerNormBackward/dbeta", dbP, dbS)
	}

	for _, sh := range [][3]int{{1, 1, 1}, {2, 3, 9}, {4, 8, 1024}} {
		b, c, plane := sh[0], sh[1], sh[2]
		x := rnd(rng, b*c*plane)
		gamma := rnd(rng, c)
		beta := rnd(rng, c)
		dy := rnd(rng, b*c*plane)

		outS := make([]float32, len(x))
		outP := make([]float32, len(x))
		xhS := make([]float32, len(x))
		xhP := make([]float32, len(x))
		varS := make([]float32, c)
		varP := make([]float32, c)
		s.BatchNorm2D(x, gamma, beta, outS, xhS, varS, b, c, plane, eps)
		p.BatchNorm2D(x, gamma, beta, outP, xhP, varP, b, c, plane, eps)
		bitsEqual(t, "BatchNorm2D", outP, outS)
		bitsEqual(t, "BatchNorm2D/xhat", xhP, xhS)
		bitsEqual(t, "BatchNorm2D/var", varP, varS)

		dxS := make([]float32, len(x))
		dxP := make([]float32, len(x))
		dgS := make([]float32, c)
		dgP := make([]float32, c)
		dbS := make([]float32, c)
		dbP := make([]float32, c)
		s.BatchNorm2DBackward(xhS, dy, varS, gamma, dxS, dgS, dbS, b, c, plane, eps)
		p.BatchNorm2DBackward(xhS, dy, varS, gamma, dxP, dgP, dbP, b, c, plane, eps)
		bitsEqual(t, "BatchNorm2DBackward/dx", dxP, dxS)
		bitsEqual(t, "BatchNorm2DBackward/dgamma", dgP, dgS)
		bitsEqual(t, "BatchNorm2DBackward/dbeta", dbP, dbS)
	}
}

func TestFusedCells(t *testing.T) { eachTiled(t, testFusedCells) }

func testFusedCells(t *testing.T, s, p Backend) {
	rng := rand.New(rand.NewSource(17))

	for _, sh := range [][3]int{{1, 1, 1}, {2, 5, 16}, {4, 64, 128}} {
		b, c, plane := sh[0], sh[1], sh[2]
		x := rnd(rng, b*2*c*plane)
		dy := rnd(rng, b*c*plane)

		outS := make([]float32, b*c*plane)
		outP := make([]float32, b*c*plane)
		gateS := make([]float32, b*c*plane)
		gateP := make([]float32, b*c*plane)
		s.GLU4D(x, outS, gateS, b, c, plane)
		p.GLU4D(x, outP, gateP, b, c, plane)
		bitsEqual(t, "GLU4D", outP, outS)
		bitsEqual(t, "GLU4D/gate", gateP, gateS)

		dxS := make([]float32, len(x))
		dxP := make([]float32, len(x))
		s.GLU4DBackward(x, gateS, dy, dxS, b, c, plane)
		p.GLU4DBackward(x, gateS, dy, dxP, b, c, plane)
		bitsEqual(t, "GLU4DBackward", dxP, dxS)
	}

	for _, sh := range [][2]int{{1, 1}, {3, 17}, {64, 96}} {
		b, hd := sh[0], sh[1]
		gates := rnd(rng, b*4*hd)
		cPrev := rnd(rng, b*hd)
		mk := func() []float32 { return make([]float32, b*hd) }
		giS, gfS, ggS, goS, cNewS, hS := mk(), mk(), mk(), mk(), mk(), mk()
		giP, gfP, ggP, goP, cNewP, hP := mk(), mk(), mk(), mk(), mk(), mk()
		s.LSTMCellForward(gates, cPrev, giS, gfS, ggS, goS, cNewS, hS, b, hd)
		p.LSTMCellForward(gates, cPrev, giP, gfP, ggP, goP, cNewP, hP, b, hd)
		bitsEqual(t, "LSTMCellForward/c", cNewP, cNewS)
		bitsEqual(t, "LSTMCellForward/h", hP, hS)
		bitsEqual(t, "LSTMCellForward/gi", giP, giS)
		bitsEqual(t, "LSTMCellForward/go", goP, goS)

		dH := rnd(rng, b*hd)
		dC := rnd(rng, b*hd)
		for _, nilDH := range []bool{false, true} {
			h, c := dH, dC
			if nilDH {
				h, c = nil, nil
			}
			dGatesS := make([]float32, b*4*hd)
			dGatesP := make([]float32, b*4*hd)
			dCPrevS, dCPrevP := mk(), mk()
			s.LSTMCellBackward(giS, gfS, ggS, goS, cPrev, cNewS, h, c, dGatesS, dCPrevS, b, hd)
			p.LSTMCellBackward(giS, gfS, ggS, goS, cPrev, cNewS, h, c, dGatesP, dCPrevP, b, hd)
			bitsEqual(t, "LSTMCellBackward/dGates", dGatesP, dGatesS)
			bitsEqual(t, "LSTMCellBackward/dCPrev", dCPrevP, dCPrevS)
		}
	}
}

func TestOptimizers(t *testing.T) { eachTiled(t, testOptimizers) }

func testOptimizers(t *testing.T, s, p Backend) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{0, 1, 999, 1 << 16} {
		param := rnd(rng, n)
		g := rnd(rng, n)

		for _, withBuf := range []bool{false, true} {
			pS, pP := clone(param), clone(param)
			var bufS, bufP []float32
			if withBuf {
				buf := rnd(rng, n)
				bufS, bufP = clone(buf), clone(buf)
			}
			s.SGDStep(pS, g, bufS, 0.01, 0.9, 1e-4)
			p.SGDStep(pP, g, bufP, 0.01, 0.9, 1e-4)
			bitsEqual(t, "SGDStep/p", pP, pS)
			if withBuf {
				bitsEqual(t, "SGDStep/buf", bufP, bufS)
			}
		}

		m := rnd(rng, n)
		v := make([]float32, n)
		for i := range v {
			v[i] = rng.Float32() // second moment must be non-negative
		}
		pS, pP := clone(param), clone(param)
		mS, mP := clone(m), clone(m)
		vS, vP := clone(v), clone(v)
		s.AdamStep(pS, g, mS, vS, 0.001, 0.9, 0.999, 1e-8, 3)
		p.AdamStep(pP, g, mP, vP, 0.001, 0.9, 0.999, 1e-8, 3)
		bitsEqual(t, "AdamStep/p", pP, pS)
		bitsEqual(t, "AdamStep/m", mP, mS)
		bitsEqual(t, "AdamStep/v", vP, vS)
	}
}

// TestParallelBitwiseIdentity repeats the contract on the two
// accumulation-heavy kernels with an exact != on the values themselves.
func TestParallelBitwiseIdentity(t *testing.T) { eachTiled(t, testParallelBitwiseIdentity) }

func testParallelBitwiseIdentity(t *testing.T, s, p Backend) {
	rng := rand.New(rand.NewSource(19))
	const m, n, k = 65, 33, 127
	a := rnd(rng, m*k)
	b := rnd(rng, k*n)
	outS := make([]float32, m*n)
	outP := make([]float32, m*n)
	s.MatMul(a, b, outS, m, n, k)
	p.MatMul(a, b, outP, m, n, k)
	for i := range outS {
		if outS[i] != outP[i] {
			t.Fatalf("MatMul not bitwise identical at %d: serial %b parallel %b",
				i, outS[i], outP[i])
		}
	}

	x := rnd(rng, 700*64)
	sumS := make([]float32, 64)
	sumP := make([]float32, 64)
	s.SumRows(x, sumS, 700, 64)
	p.SumRows(x, sumP, 700, 64)
	for i := range sumS {
		if sumS[i] != sumP[i] {
			t.Fatalf("SumRows not bitwise identical at %d", i)
		}
	}
}

// TestConcurrentUse hammers the shared worker pool from several goroutines:
// backends must be safe for concurrent use by independent callers (this is
// the -race target).
func TestConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	p := NewParallel()
	s := NewSerial()
	const m, n, k = 64, 64, 64
	a := rnd(rng, m*k)
	b := rnd(rng, k*n)
	want := make([]float32, m*n)
	s.MatMul(a, b, want, m, n, k)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float32, m*n)
			for iter := 0; iter < 20; iter++ {
				for i := range out {
					out[i] = 0
				}
				p.MatMul(a, b, out, m, n, k)
				for i := range out {
					if out[i] != want[i] {
						t.Errorf("concurrent MatMul diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"", "serial", "parallel"} {
		be, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if name != "" && be.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, be.Name())
		}
	}
	if _, err := New("cuda"); err == nil {
		t.Fatal("New(cuda) should fail")
	}
	if got := Default().Name(); got != "serial" {
		t.Fatalf("Default() = %q, want serial", got)
	}
}

// --- dense kernel family vs the loop nests it replaced ---
//
// The six functions below are the loop nests that were the production GEMM
// and convolution kernels before gemm.go and conv.go, kept verbatim as
// oracles: the blocked kernels must reproduce their output bit for bit
// (math.Float32bits, not a tolerance), on both backends, because every
// golden digest in the repository was recorded through them.

// naiveMatMulRange accumulates rows [lo,hi) of a (·,k) @ b (k,n) into out.
func naiveMatMulRange(a, b, out []float32, n, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// naiveMatMulTARange accumulates output rows [lo,hi) of aᵀ @ b for a stored
// (k,m). Accumulation order over p matches the serial original.
func naiveMatMulTARange(a, b, out []float32, m, n, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		orow := out[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// naiveMatMulTBRange writes output rows [lo,hi) of a @ bᵀ for b stored (n,k).
func naiveMatMulTBRange(a, b, out []float32, n, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s float32
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
}

// naiveConv2DRange computes output (batch, out-channel) pairs [lo,hi) — flat
// index b*Cout+oc — of the forward convolution.
func naiveConv2DRange(x, w, out []float32, p ConvParams, lo, hi int) {
	for bc := lo; bc < hi; bc++ {
		b, oc := bc/p.Cout, bc%p.Cout
		for oy := 0; oy < p.OH; oy++ {
			for ox := 0; ox < p.OW; ox++ {
				var s float32
				iy0 := oy*p.StrideH - p.PadH
				ix0 := ox*p.StrideW - p.PadW
				for ic := 0; ic < p.Cin; ic++ {
					for ky := 0; ky < p.KH; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= p.H {
							continue
						}
						xBase := ((b*p.Cin+ic)*p.H + iy) * p.W
						wBase := ((oc*p.Cin+ic)*p.KH + ky) * p.KW
						for kx := 0; kx < p.KW; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= p.W {
								continue
							}
							s += x[xBase+ix] * w[wBase+kx]
						}
					}
				}
				out[((b*p.Cout+oc)*p.OH+oy)*p.OW+ox] = s
			}
		}
	}
}

// naiveConv2DGradInputRange accumulates dx for (batch, in-channel) pairs [lo,hi)
// — flat index b*Cin+ic. For a fixed (b,ic), contributions arrive in
// (oc,oy,ox,ky,kx) order, exactly as in the serial loop nest.
func naiveConv2DGradInputRange(dy, w, dx []float32, p ConvParams, lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		b, ic := bi/p.Cin, bi%p.Cin
		for oc := 0; oc < p.Cout; oc++ {
			for oy := 0; oy < p.OH; oy++ {
				for ox := 0; ox < p.OW; ox++ {
					g := dy[((b*p.Cout+oc)*p.OH+oy)*p.OW+ox]
					if g == 0 {
						continue
					}
					iy0 := oy*p.StrideH - p.PadH
					ix0 := ox*p.StrideW - p.PadW
					for ky := 0; ky < p.KH; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= p.H {
							continue
						}
						xBase := ((b*p.Cin+ic)*p.H + iy) * p.W
						wBase := ((oc*p.Cin+ic)*p.KH + ky) * p.KW
						for kx := 0; kx < p.KW; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= p.W {
								continue
							}
							dx[xBase+ix] += g * w[wBase+kx]
						}
					}
				}
			}
		}
	}
}

// naiveConv2DGradWeightRange accumulates dw for output channels [lo,hi): each
// channel owns a disjoint filter slab, with contributions in (b,oy,ox)
// order as in the serial loop nest.
func naiveConv2DGradWeightRange(x, dy, dw []float32, p ConvParams, lo, hi int) {
	for oc := lo; oc < hi; oc++ {
		for b := 0; b < p.N; b++ {
			for oy := 0; oy < p.OH; oy++ {
				for ox := 0; ox < p.OW; ox++ {
					g := dy[((b*p.Cout+oc)*p.OH+oy)*p.OW+ox]
					if g == 0 {
						continue
					}
					iy0 := oy*p.StrideH - p.PadH
					ix0 := ox*p.StrideW - p.PadW
					for ic := 0; ic < p.Cin; ic++ {
						for ky := 0; ky < p.KH; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= p.H {
								continue
							}
							xBase := ((b*p.Cin+ic)*p.H + iy) * p.W
							wBase := ((oc*p.Cin+ic)*p.KH + ky) * p.KW
							for kx := 0; kx < p.KW; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= p.W {
									continue
								}
								dw[wBase+kx] += g * x[xBase+ix]
							}
						}
					}
				}
			}
		}
	}
}

// rndSparse is rnd with each element zeroed with probability zeroFrac.
func rndSparse(rng *rand.Rand, n int, zeroFrac float64) []float32 {
	s := rnd(rng, n)
	for i := range s {
		if rng.Float64() < zeroFrac {
			s[i] = 0
		}
	}
	return s
}

var bothBackends = []Backend{NewSerial(), NewParallel()}

// sub32 subtracts at run time: a call the compiler cannot inline is one it
// cannot fold into a constant of its own choosing.
//
//go:noinline
func sub32(a, b float32) float32 { return a - b }

// Operand flavours of the GEMM oracle sweep.
const (
	plainOperands     = iota // uniform in [-1,1)
	specialOperands          // plus -0, +Inf, -Inf and NaN in A and in B
	subnormalOperands        // A scaled so products and sums are subnormal
	numFlavours
)

// spike overwrites a few elements of s with the values the zero-skip rule
// and the rounding rules treat specially. The NaN is the one this machine's
// arithmetic generates (Inf-Inf), so every NaN in play has the same bits:
// which of two *different* NaNs survives NaN+NaN follows the operand order
// the compiler happened to pick, and that differs already between the loop
// nests (product first into a stored accumulator, accumulator first into a
// register one).
func spike(s []float32, stride int) {
	if len(s) == 0 {
		return
	}
	inf := float32(math.Inf(1))
	for i, v := range []float32{float32(math.Copysign(0, -1)), inf, -inf, sub32(inf, inf)} {
		s[(stride*i+3)%len(s)] = v
	}
}

// offset returns a copy of s that starts off floats into its backing array,
// so its first element sits at every alignment a vector load can meet.
func offset(s []float32, off int) []float32 {
	buf := make([]float32, off+len(s))
	copy(buf[off:], s)
	return buf[off:]
}

// checkGEMMMatchesLoopNests holds the three products of both backends, under
// every micro-kernel body, to the loop nests on one generated case: a share
// zeros of A's entries zeroed, operands of the given flavour, and A, B and
// the output starting offA, offB and offOut floats into their arrays.
func checkGEMMMatchesLoopNests(t *testing.T, rng *rand.Rand, m, n, k int, zeros float64, flavour, offA, offB, offOut int) {
	t.Helper()
	a := rndSparse(rng, m*k, zeros)
	at := rndSparse(rng, k*m, zeros) // MatMulTA operand, stored (k,m)
	b := rnd(rng, k*n)
	bt := rnd(rng, n*k) // MatMulTB operand, stored (n,k)
	switch flavour {
	case specialOperands:
		// -0 in A must be skipped like +0, Inf and NaN must not be; B is
		// never inspected, only multiplied.
		spike(a, 7)
		spike(at, 5)
		spike(b, 11)
		spike(bt, 13)
	case subnormalOperands:
		for i := range a {
			a[i] *= 1e-39
		}
		for i := range at {
			at[i] *= 1e-39
		}
	}
	a, at, b, bt = offset(a, offA), offset(at, offA), offset(b, offB), offset(bt, offB)
	base := rnd(rng, m*n)
	if flavour == subnormalOperands {
		clear(base) // a normal accumulator would absorb every subnormal term
	}

	want := clone(base)
	naiveMatMulRange(a, b, want, n, k, 0, m)
	wantTA := clone(base)
	naiveMatMulTARange(at, b, wantTA, m, n, k, 0, m)
	wantTB := clone(base)
	naiveMatMulTBRange(a, bt, wantTB, n, k, 0, m)

	eachBody(t, func() {
		for _, be := range bothBackends {
			name := be.Name() + "/" + DenseKernel()
			got := offset(base, offOut)
			be.MatMul(a, b, got, m, n, k)
			bitsEqual(t, name+"/MatMul", got, want)
			got = offset(base, offOut)
			be.MatMulTA(at, b, got, m, n, k)
			bitsEqual(t, name+"/MatMulTA", got, wantTA)
			got = offset(base, offOut)
			be.MatMulTB(a, bt, got, m, n, k)
			bitsEqual(t, name+"/MatMulTB", got, wantTB)
		}
	})
}

// TestGEMMMatchesLoopNests sweeps m, n, k around the tile edges (2 rows, 4 k
// steps, 8 vector lanes), including m = 1, k < 4 and n below, at and just
// past one, two and four vectors, with A at the zero densities the suite
// sees — dense weights, post-ReLU activations and cora's bag-of-words
// features — in every operand flavour and with the slices at the three
// alignments a float32 slice can have relative to a vector. The last shapes
// clear the parallel cutoff.
func TestGEMMMatchesLoopNests(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var shapes [][3]int
	for _, m := range []int{1, 2, 3, 5} {
		for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40} {
			for _, k := range []int{1, 3, 4, 5, 7, 8, 13} {
				shapes = append(shapes, [3]int{m, n, k})
			}
		}
	}
	shapes = append(shapes, [3]int{64, 64, 64}, [3]int{65, 33, 127}, [3]int{33, 130, 31})
	offs := []int{0, 1, 3}
	for i, sh := range shapes {
		for _, zeros := range []float64{0, 0.5, 0.95} {
			for flavour := 0; flavour < numFlavours; flavour++ {
				checkGEMMMatchesLoopNests(t, rng, sh[0], sh[1], sh[2], zeros, flavour,
					offs[i%3], offs[(i/3)%3], offs[(i/9)%3])
			}
		}
	}
}

// FuzzGEMMEquivalence lets the fuzzer pick the shape, the zero density, the
// operand flavour, the three slice offsets and the data seed; any case where
// the vector body, the Go loops and the loop nests disagree in one bit is a
// bug.
func FuzzGEMMEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(7), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(4), uint8(32), uint8(12), uint8(50), uint8(1), uint8(0x1d))
	f.Add(int64(3), uint8(2), uint8(16), uint8(0), uint8(95), uint8(2), uint8(0x37))
	f.Fuzz(func(t *testing.T, seed int64, m, n, k, zeros, flavour, offs uint8) {
		checkGEMMMatchesLoopNests(t, rand.New(rand.NewSource(seed)),
			1+int(m%6), 1+int(n%48), 1+int(k%24), float64(zeros%101)/100, int(flavour%numFlavours),
			int(offs&3), int(offs>>2&3), int(offs>>4&3))
	})
}

// convCase fills in the output dimensions of a convolution geometry.
func convCase(n, cin, h, w, cout, kh, kw, sh, sw, ph, pw int) ConvParams {
	return ConvParams{
		N: n, Cin: cin, H: h, W: w, Cout: cout, KH: kh, KW: kw,
		StrideH: sh, StrideW: sw, PadH: ph, PadW: pw,
		OH: (h+2*ph-kh)/sh + 1, OW: (w+2*pw-kw)/sw + 1,
	}
}

// checkConvMatchesLoopNests compares the three convolution kernels of both
// backends against the loop nests for one geometry. Forward output starts
// from garbage (the kernel overwrites); dx and dw start from a non-zero
// base (the kernels accumulate); dy carries zeros, which the nests skipped.
func checkConvMatchesLoopNests(t *testing.T, rng *rand.Rand, cp ConvParams, dyZeros float64) {
	t.Helper()
	x := rnd(rng, cp.N*cp.Cin*cp.H*cp.W)
	w := rnd(rng, cp.Cout*cp.Cin*cp.KH*cp.KW)
	dy := rndSparse(rng, cp.N*cp.Cout*cp.OH*cp.OW, dyZeros)
	outBase := rnd(rng, len(dy))
	dxBase := rnd(rng, len(x))
	dwBase := rnd(rng, len(w))

	wantOut := clone(outBase)
	naiveConv2DRange(x, w, wantOut, cp, 0, cp.N*cp.Cout)
	wantDx := clone(dxBase)
	naiveConv2DGradInputRange(dy, w, wantDx, cp, 0, cp.N*cp.Cin)
	wantDw := clone(dwBase)
	naiveConv2DGradWeightRange(x, dy, wantDw, cp, 0, cp.Cout)

	eachBody(t, func() {
		for _, be := range bothBackends {
			name := be.Name() + "/" + DenseKernel()
			got := clone(outBase)
			be.Conv2D(x, w, got, cp)
			bitsEqual(t, name+"/Conv2D", got, wantOut)
			got = clone(dxBase)
			be.Conv2DGradInput(dy, w, got, cp)
			bitsEqual(t, name+"/Conv2DGradInput", got, wantDx)
			got = clone(dwBase)
			be.Conv2DGradWeight(x, dy, got, cp)
			bitsEqual(t, name+"/Conv2DGradWeight", got, wantDw)
		}
	})
}

// TestConvMatchesLoopNests draws geometries over stride 1-2, pad 0-2,
// kernel 1-4 and Cin from 1, and adds the shapes the suite runs: STGCN's
// four temporal convolutions at batch 8 and the DNN baseline's padded 3x3
// at stride 1 and 2.
func TestConvMatchesLoopNests(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 150; i++ {
		kh, kw := 1+rng.Intn(4), 1+rng.Intn(4)
		ph, pw := rng.Intn(3), rng.Intn(3)
		// Keep the image at least as large as the unpadded kernel.
		h, w := kh+rng.Intn(6), kw+rng.Intn(6)
		cp := convCase(1+rng.Intn(3), 1+rng.Intn(3), h, w, 1+rng.Intn(5),
			kh, kw, 1+rng.Intn(2), 1+rng.Intn(2), ph, pw)
		checkConvMatchesLoopNests(t, rng, cp, 0.4)
	}
	for _, cp := range []ConvParams{
		convCase(8, 1, 100, 12, 48, 1, 3, 1, 1, 0, 0),  // stgcn.b1.t1
		convCase(8, 24, 100, 10, 48, 1, 3, 1, 1, 0, 0), // stgcn.b1.t2
		convCase(8, 24, 100, 8, 48, 1, 3, 1, 1, 0, 0),  // stgcn.b2.t1
		convCase(8, 24, 100, 6, 48, 1, 3, 1, 1, 0, 0),  // stgcn.b2.t2
		convCase(4, 3, 16, 16, 8, 3, 3, 1, 1, 1, 1),    // dnn stage 0
		convCase(4, 8, 8, 8, 16, 3, 3, 2, 2, 1, 1),     // dnn strided stage
	} {
		checkConvMatchesLoopNests(t, rng, cp, 0.4)
	}
}

// TestZeroSkipEdge pins the one deliberate difference from the loop nests.
// The nests skipped zero *gradients* and out-of-image taps; the dense
// kernels store those as zeros and multiply them through, and skip zero
// *left operands* (filter values) instead. A skipped term and a ±0 product
// leave the same bits in the accumulator unless
//
//   - the other factor is non-finite: Inf*0 is NaN where the nest had
//     nothing to add; or
//   - the accumulator holds -0: -0 + +0 is +0 where the nest kept -0.
//
// Neither occurs in training (a non-finite weight or activation has already
// failed the run's finite-loss checks, and accumulators start from the +0 of
// a fresh tensor, which no sum of finite products turns into -0), so the
// golden digests do not move. MatMul and MatMulTA keep the nests' own skip
// (left operand zero) and have no such edge.
//
// The transposed-B products skip nothing at all: MatMulTB and the filter
// gradient are dot products, and the packed path that computes them must
// multiply a zero left operand through as the dot-product loop did. Were it
// ever routed through the zero-skipping gemmRange, 0*Inf would stay 0 and a
// -0 accumulator would stay -0; the last two checks fail on that.
func TestZeroSkipEdge(t *testing.T) { eachBody(t, func() { testZeroSkipEdge(t) }) }

func testZeroSkipEdge(t *testing.T) {
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	// 1x1 image, 3x3 filter, pad 1: eight of the nine taps are padding.
	cp := convCase(1, 1, 1, 1, 1, 3, 3, 1, 1, 1, 1)
	x := []float32{2}
	w := []float32{inf, 1, 1, 1, 3, 1, 1, 1, 1}
	for _, be := range bothBackends {
		want := []float32{0}
		naiveConv2DRange(x, w, want, cp, 0, 1)
		if want[0] != 6 {
			t.Fatalf("loop nest: padded tap under an Inf weight gave %v, want 6", want[0])
		}
		got := []float32{0}
		be.Conv2D(x, w, got, cp)
		if !math.IsNaN(float64(got[0])) {
			t.Fatalf("%s: Inf weight over a padded tap gave %v, want NaN (Inf*0)", be.Name(), got[0])
		}

		// A zero gradient: the nest leaves a -0 accumulator alone, the dense
		// kernel adds w*0 = +0 to it.
		dy := []float32{0}
		wf := []float32{1, 1, 1, 1, 1, 1, 1, 1, 1}
		wantDx := []float32{negZero}
		naiveConv2DGradInputRange(dy, wf, wantDx, cp, 0, 1)
		if math.Float32bits(wantDx[0]) != math.Float32bits(negZero) {
			t.Fatalf("loop nest: zero gradient moved a -0 accumulator to %v", wantDx[0])
		}
		gotDx := []float32{negZero}
		be.Conv2DGradInput(dy, wf, gotDx, cp)
		if math.Float32bits(gotDx[0]) != 0 {
			t.Fatalf("%s: -0 + w*0 gave %#08x, want +0", be.Name(), math.Float32bits(gotDx[0]))
		}

		// MatMulTB: a zero in A against an Inf in B is NaN, in the vector
		// lanes and in the tail (n = 9 is one vector and one left over).
		const n = 9
		bInf := make([]float32, n)
		for j := range bInf {
			bInf[j] = inf
		}
		wantTB := make([]float32, n)
		naiveMatMulTBRange([]float32{0}, bInf, wantTB, n, 1, 0, 1)
		gotTB := make([]float32, n)
		be.MatMulTB([]float32{0}, bInf, gotTB, 1, n, 1)
		for j := range gotTB {
			if !math.IsNaN(float64(wantTB[j])) || !math.IsNaN(float64(gotTB[j])) {
				t.Fatalf("%s: MatMulTB 0*Inf at column %d gave %v (dot product %v), want NaN",
					be.Name(), j, gotTB[j], wantTB[j])
			}
		}

		// Conv2DGradWeight: a zero gradient over an Inf input is NaN, and
		// over a finite one it turns a -0 filter gradient into +0. Nine taps
		// of a 3x3 filter over a 3x3 image: one vector and one left over.
		cw := convCase(1, 1, 3, 3, 1, 3, 3, 1, 1, 1, 1)
		ones := []float32{1, 1, 1, 1, 1, 1, 1, 1, 1}
		zeroDy := make([]float32, 9)
		gotDw := make([]float32, 9)
		for i := range gotDw {
			gotDw[i] = negZero
		}
		be.Conv2DGradWeight(ones, zeroDy, gotDw, cw)
		for i, v := range gotDw {
			if math.Float32bits(v) != 0 {
				t.Fatalf("%s: Conv2DGradWeight -0 + 0*x at tap %d gave %#08x, want +0", be.Name(), i, math.Float32bits(v))
			}
		}
		be.Conv2DGradWeight(bInf, zeroDy, gotDw, cw)
		for i, v := range gotDw {
			if !math.IsNaN(float64(v)) {
				t.Fatalf("%s: Conv2DGradWeight 0*Inf at tap %d gave %v, want NaN", be.Name(), i, v)
			}
		}
	}
}

// TestConvConcurrentScratch drives the convolution kernels from several
// goroutines at once: tiles and callers draw patch buffers from one pool,
// so under -race this is the check that no two ever share one.
func TestConvConcurrentScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cp := convCase(4, 8, 16, 16, 8, 3, 3, 1, 1, 1, 1)
	x := rnd(rng, cp.N*cp.Cin*cp.H*cp.W)
	w := rnd(rng, cp.Cout*cp.Cin*cp.KH*cp.KW)
	dy := rnd(rng, cp.N*cp.Cout*cp.OH*cp.OW)
	wantOut := make([]float32, len(dy))
	naiveConv2DRange(x, w, wantOut, cp, 0, cp.N*cp.Cout)
	wantDx := make([]float32, len(x))
	naiveConv2DGradInputRange(dy, w, wantDx, cp, 0, cp.N*cp.Cin)
	wantDw := make([]float32, len(w))
	naiveConv2DGradWeightRange(x, dy, wantDw, cp, 0, cp.Cout)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		be := bothBackends[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				out := make([]float32, len(dy))
				dx := make([]float32, len(x))
				dw := make([]float32, len(w))
				be.Conv2D(x, w, out, cp)
				be.Conv2DGradInput(dy, w, dx, cp)
				be.Conv2DGradWeight(x, dy, dw, cp)
				// t.Fatal may not be called off the test goroutine.
				for name, pair := range map[string][2][]float32{
					"Conv2D": {out, wantOut}, "Conv2DGradInput": {dx, wantDx}, "Conv2DGradWeight": {dw, wantDw},
				} {
					for i, v := range pair[0] {
						if v != pair[1][i] {
							t.Errorf("concurrent %s diverged at %d", name, i)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzConvEquivalence lets the fuzzer pick the geometry and the data seed;
// any shape it finds where a kernel leaves the loop nests' bits is a bug.
func FuzzConvEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), uint8(4), uint8(4), uint8(1), uint8(2), uint8(2), uint8(0), uint8(0), uint8(1), uint8(1), uint8(40))
	f.Add(int64(2), uint8(2), uint8(2), uint8(5), uint8(3), uint8(4), uint8(0), uint8(3), uint8(1), uint8(1), uint8(2), uint8(0), uint8(0))
	f.Add(int64(3), uint8(0), uint8(1), uint8(0), uint8(5), uint8(2), uint8(3), uint8(0), uint8(1), uint8(0), uint8(0), uint8(2), uint8(95))
	f.Fuzz(func(t *testing.T, seed int64, n, cin, dh, dw, cout, kh, kw, sh, sw, ph, pw, zeros uint8) {
		khv, kwv := 1+int(kh%4), 1+int(kw%4)
		cp := convCase(1+int(n%3), 1+int(cin%4), khv+int(dh%8), kwv+int(dw%8), 1+int(cout%6),
			khv, kwv, 1+int(sh%2), 1+int(sw%2), int(ph%3), int(pw%3))
		checkConvMatchesLoopNests(t, rand.New(rand.NewSource(seed)), cp, float64(zeros%101)/100)
	})
}
