package ops

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"gnnmark/internal/gpu"
	"gnnmark/internal/graph"
	"gnnmark/internal/tensor"
	"gnnmark/internal/vmem"
)

// recordingEngine returns an engine on a small device plus a function that
// returns the stats of every kernel launched so far (it syncs the device,
// which delivers them).
func recordingEngine() (*Engine, func() []gpu.KernelStats) {
	cfg := gpu.V100()
	cfg.MaxSampledWarps = 1 << 10
	dev := gpu.New(cfg)
	var log []gpu.KernelStats
	dev.Subscribe(func(ks gpu.KernelStats) { log = append(log, ks) })
	return New(dev), func() []gpu.KernelStats { dev.Sync(); return log }
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func tensorsAlmostEqual(t *testing.T, got, want *tensor.Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape %v, want %v", got.Shape(), want.Shape())
	}
	for i := range got.Data() {
		if !almostEq(float64(got.Data()[i]), float64(want.Data()[i]), tol) {
			t.Fatalf("element %d = %g, want %g", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestMatMulCorrect(t *testing.T) {
	e := New(nil)
	a := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := tensor.FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := e.MatMul(a, b)
	want := tensor.FromSlice([]float32{58, 64, 139, 154}, 2, 2)
	tensorsAlmostEqual(t, got, want, 1e-5)
}

func TestMatMulTransposedVariantsAgree(t *testing.T) {
	e := New(nil)
	rng := rand.New(rand.NewSource(1))
	a := tensor.Rand(rng, 1, 4, 6)
	b := tensor.Rand(rng, 1, 6, 5)
	want := e.MatMul(a, b)

	at := transpose(a) // (6,4)
	got1 := e.MatMulTA(at, b)
	tensorsAlmostEqual(t, got1, want, 1e-4)

	bt := transpose(b) // (5,6)
	got2 := e.MatMulTB(a, bt)
	tensorsAlmostEqual(t, got2, want, 1e-4)
}

// sum adds x's elements in float64: the scalar loss the finite-difference
// gradient checks perturb.
func sum(x *tensor.Tensor) float64 {
	var s float64
	for _, v := range x.Data() {
		s += float64(v)
	}
	return s
}

// transpose returns xᵀ for a 2-D x: the reference the transposed-operand
// GEMMs are compared against.
func transpose(x *tensor.Tensor) *tensor.Tensor {
	n, f := x.Shape()[0], x.Shape()[1]
	out := tensor.New(f, n)
	for i := 0; i < n; i++ {
		for j := 0; j < f; j++ {
			out.Set(x.At(i, j), j, i)
		}
	}
	return out
}

func TestMatMulShapePanics(t *testing.T) {
	e := New(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	e.MatMul(tensor.New(2, 3), tensor.New(2, 3))
}

func TestMatMulEmitsGEMMKernel(t *testing.T) {
	e, launched := recordingEngine()
	e.MatMul(tensor.Full(1, 32, 32), tensor.Full(1, 32, 32))
	log := launched()
	if len(log) != 1 {
		t.Fatalf("launched %d kernels, want 1", len(log))
	}
	ks := log[0]
	if ks.Class != gpu.OpGEMM {
		t.Fatalf("class = %v, want GEMM", ks.Class)
	}
	if ks.Flops != 2*32*32*32 {
		t.Fatalf("flops = %d", ks.Flops)
	}
	if ks.Mix.Fp32+ks.Mix.Fp16 <= ks.Mix.Int32 {
		t.Fatal("GEMM must be fp-dominated")
	}
}

func TestSpMMMatchesDenseMatMul(t *testing.T) {
	e := New(nil)
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomGNP(rng, 20, 0.2)
	x := tensor.Rand(rng, 1, 20, 8)

	got := e.SpMM(g, x)

	// Dense reference.
	dense := tensor.New(20, 20)
	for dst := 0; dst < 20; dst++ {
		for _, src := range g.Neighbors(dst) {
			dense.Set(1, dst, int(src))
		}
	}
	want := e.MatMul(dense, x)
	tensorsAlmostEqual(t, got, want, 1e-4)
}

func TestSpMMWeighted(t *testing.T) {
	e := New(nil)
	g := graph.FromEdges(2, 2, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 1}})
	g.Vals = []float32{2, 3}
	x := tensor.FromSlice([]float32{1, 10}, 2, 1)
	got := e.SpMM(g, x)
	want := tensor.FromSlice([]float32{0, 2*1 + 3*10}, 2, 1)
	tensorsAlmostEqual(t, got, want, 1e-6)
}

func TestSpMMEmitsSpMMKernelWithDivergence(t *testing.T) {
	e, launched := recordingEngine()
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomGNP(rng, 400, 0.02)
	x := tensor.Rand(rng, 1, 400, 16)
	e.SpMM(g, x)
	var spmm *gpu.KernelStats
	log := launched()
	for i := range log {
		if log[i].Class == gpu.OpSpMM {
			spmm = &log[i]
		}
	}
	if spmm == nil {
		t.Fatal("no SpMM kernel launched")
	}
	if spmm.DivergenceRate() < 0.3 {
		t.Fatalf("SpMM divergence = %.3f, want substantial", spmm.DivergenceRate())
	}
}

func TestElementwiseOps(t *testing.T) {
	e := New(nil)
	a := tensor.FromSlice([]float32{1, -2, 3}, 3)
	b := tensor.FromSlice([]float32{4, 5, -6}, 3)

	tensorsAlmostEqual(t, e.Add(a, b), tensor.FromSlice([]float32{5, 3, -3}, 3), 1e-6)
	tensorsAlmostEqual(t, e.Sub(a, b), tensor.FromSlice([]float32{-3, -7, 9}, 3), 1e-6)
	tensorsAlmostEqual(t, e.Mul(a, b), tensor.FromSlice([]float32{4, -10, -18}, 3), 1e-6)
	tensorsAlmostEqual(t, e.Scale(a, 2), tensor.FromSlice([]float32{2, -4, 6}, 3), 1e-6)
	tensorsAlmostEqual(t, e.AddScalar(a, 1), tensor.FromSlice([]float32{2, -1, 4}, 3), 1e-6)
	tensorsAlmostEqual(t, e.ReLU(a), tensor.FromSlice([]float32{1, 0, 3}, 3), 1e-6)
	tensorsAlmostEqual(t, e.PReLU(a, 0.1), tensor.FromSlice([]float32{1, -0.2, 3}, 3), 1e-6)

	sig := e.Sigmoid(tensor.FromSlice([]float32{0}, 1))
	if !almostEq(float64(sig.At(0)), 0.5, 1e-6) {
		t.Fatalf("sigmoid(0) = %g", sig.At(0))
	}
	th := e.Tanh(tensor.FromSlice([]float32{0.5}, 1))
	if !almostEq(float64(th.At(0)), math.Tanh(0.5), 1e-6) {
		t.Fatalf("tanh(0.5) = %g", th.At(0))
	}
}

func TestReLUBackward(t *testing.T) {
	e := New(nil)
	x := tensor.FromSlice([]float32{1, -1, 2, 0}, 4)
	dy := tensor.FromSlice([]float32{10, 20, 30, 40}, 4)
	got := e.ReLUBackward(x, dy)
	want := tensor.FromSlice([]float32{10, 0, 30, 0}, 4)
	tensorsAlmostEqual(t, got, want, 1e-6)
}

func TestDropout(t *testing.T) {
	e := New(nil)
	rng := rand.New(rand.NewSource(4))
	x := tensor.Full(1, 100, 10)
	out, mask := e.Dropout(x, 0.5, rng)
	kept := 0
	for i, m := range mask.Data() {
		switch m {
		case 1:
			kept++
			if !almostEq(float64(out.Data()[i]), 2, 1e-6) {
				t.Fatalf("kept element not scaled: %g", out.Data()[i])
			}
		case 0:
			if out.Data()[i] != 0 {
				t.Fatal("dropped element not zeroed")
			}
		default:
			t.Fatalf("mask element %g", m)
		}
	}
	if kept < 350 || kept > 650 {
		t.Fatalf("kept %d of 1000 at p=0.5", kept)
	}
}

func TestDropoutPanicsOnBadP(t *testing.T) {
	e := New(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	e.Dropout(tensor.New(2), 1.0, rand.New(rand.NewSource(1)))
}

func TestConcatSplitRoundTrip(t *testing.T) {
	e := New(nil)
	a := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := tensor.FromSlice([]float32{5, 6}, 2, 1)
	c := e.Concat2D(a, b)
	if c.Dim(1) != 3 || c.At(0, 2) != 5 || c.At(1, 1) != 4 {
		t.Fatalf("concat wrong: %v", c.Data())
	}
	a2, b2 := e.SplitCols(c, 2)
	tensorsAlmostEqual(t, a2, a, 0)
	tensorsAlmostEqual(t, b2, b, 0)
}

func TestGatherScatterInverseProperty(t *testing.T) {
	// Property: scatter-add of gathered rows into a zero tensor using the
	// same indices accumulates each source row exactly count(idx==row) times.
	e := New(nil)
	f := func(rawIdx []uint8) bool {
		if len(rawIdx) == 0 {
			return true
		}
		const n, fdim = 8, 3
		rng := rand.New(rand.NewSource(5))
		x := tensor.Rand(rng, 1, n, fdim)
		idx := make([]int32, len(rawIdx))
		count := make([]int, n)
		for i, r := range rawIdx {
			idx[i] = int32(r % n)
			count[idx[i]]++
		}
		g := e.GatherRows(x, idx)
		dst := tensor.New(n, fdim)
		e.ScatterAddRows(dst, g, idx)
		for r := 0; r < n; r++ {
			for j := 0; j < fdim; j++ {
				want := float64(x.At(r, j)) * float64(count[r])
				if !almostEq(float64(dst.At(r, j)), want, 1e-3) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherRowsPanicsOutOfRange(t *testing.T) {
	e := New(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	e.GatherRows(tensor.New(2, 2), []int32{3})
}

func TestKernelClassesEmitted(t *testing.T) {
	e, launched := recordingEngine()
	rng := rand.New(rand.NewSource(6))
	x := tensor.Rand(rng, 1, 16, 8)
	idx := []int32{1, 3, 5}

	e.GatherRows(x, idx)
	e.IndexSelectRows(x, idx)
	e.ScatterAddRows(tensor.New(16, 8), tensor.New(3, 8), idx)
	e.EmbeddingLookup(x, idx)
	e.SortInt32([]int32{5, 3, 1})
	e.SumAll(x)
	e.Softmax(x)
	mean, variance := e.BatchNormStats(x)
	e.BatchNormApply(x, mean, variance, tensor.Full(1, 8), tensor.New(8), 1e-5)

	want := []gpu.OpClass{
		gpu.OpGather, gpu.OpIndexSelect, gpu.OpScatter, gpu.OpEmbedding,
		gpu.OpSort, gpu.OpReduction, gpu.OpReduction, gpu.OpBatchNorm, gpu.OpBatchNorm,
	}
	log := launched()
	if len(log) != len(want) {
		t.Fatalf("launched %d kernels, want %d", len(log), len(want))
	}
	for i, w := range want {
		if log[i].Class != w {
			t.Fatalf("kernel %d class = %v, want %v", i, log[i].Class, w)
		}
	}
}

func TestSortInt32(t *testing.T) {
	e := New(nil)
	got := e.SortInt32([]int32{5, -1, 3, 3, 0})
	want := []int32{-1, 0, 3, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted = %v", got)
		}
	}
	perm := e.ArgsortInt32([]int32{30, 10, 20})
	if perm[0] != 1 || perm[1] != 2 || perm[2] != 0 {
		t.Fatalf("argsort = %v", perm)
	}
}

// TestSortsMatchReflectionSorts pins SortInt32 and ArgsortInt32 against the
// sort.Slice / sort.SliceStable calls they replaced, on random keys with
// ties: a sorted []int32 and a stable permutation are each unique, so the
// generic sorts cannot move a bit.
func TestSortsMatchReflectionSorts(t *testing.T) {
	e := New(nil)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		keys := make([]int32, rng.Intn(300))
		for i := range keys {
			keys[i] = int32(rng.Intn(40)) - 20
		}
		want := slices.Clone(keys)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if got := e.SortInt32(keys); !slices.Equal(got, want) {
			t.Fatalf("SortInt32(%v) = %v, want %v", keys, got, want)
		}
		wantPerm := make([]int32, len(keys))
		for i := range wantPerm {
			wantPerm[i] = int32(i)
		}
		sort.SliceStable(wantPerm, func(i, j int) bool { return keys[wantPerm[i]] < keys[wantPerm[j]] })
		if got := e.ArgsortInt32(keys); !slices.Equal(got, wantPerm) {
			t.Fatalf("ArgsortInt32(%v) = %v, want %v", keys, got, wantPerm)
		}
	}
}

// TestRelaunchMatchesSort: to the device, a radix_sort relaunched from its
// RecordSort record is the launch SortInt32Segments made over the keys.
// Twin engines, one sorting and one relaunching, see random key buffers —
// empty, short, longer than 256 (several keys to a bucket), negative, cut
// into segments — with iteration boundaries between some of them, and must
// log the same kernel stats and hold the same device clock and allocator
// counters after every launch.
func TestRelaunchMatchesSort(t *testing.T) {
	sorting, sorted := recordingEngine()
	relaunching, relaunched := recordingEngine()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 80; trial++ {
		if trial%5 == 0 {
			sorting.BeginIteration()
			relaunching.BeginIteration()
		}
		keys := make([]int32, []int{0, 1, 255, 256, 257, 2000}[trial%6]+rng.Intn(trial+1))
		for i := range keys {
			keys[i] = rng.Int31n(1<<20) - 1<<19
		}
		var ends []int
		for lo := 0; lo < len(keys); {
			lo = min(len(keys), lo+1+rng.Intn(100))
			ends = append(ends, lo)
		}
		sorting.SortInt32Segments(keys, ends)
		relaunching.RelaunchSort(RecordSort(keys))

		want, got := sorted(), relaunched()
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d keys): relaunch logged %+v, sort %+v", trial, len(keys), got, want)
		}
		ws, gs := sorting.Device(), relaunching.Device()
		if ws.ElapsedSeconds() != gs.ElapsedSeconds() || ws.MemStats() != gs.MemStats() {
			t.Fatalf("trial %d (%d keys): relaunch left %x s and %+v, sort %x s and %+v",
				trial, len(keys), gs.ElapsedSeconds(), gs.MemStats(), ws.ElapsedSeconds(), ws.MemStats())
		}
	}
}

func TestReductions(t *testing.T) {
	e := New(nil)
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := e.SumAll(x).At(0); got != 21 {
		t.Fatalf("SumAll = %g", got)
	}
	if got := e.MeanAll(x).At(0); !almostEq(float64(got), 3.5, 1e-6) {
		t.Fatalf("MeanAll = %g", got)
	}
	tensorsAlmostEqual(t, e.SumRows(x), tensor.FromSlice([]float32{5, 7, 9}, 3), 1e-6)
	tensorsAlmostEqual(t, e.SumCols(x), tensor.FromSlice([]float32{6, 15}, 2), 1e-6)
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	e := New(nil)
	f := func(vals []float32) bool {
		if len(vals) < 2 {
			return true
		}
		// Clamp to a sane range; quick can generate huge values.
		for i := range vals {
			if vals[i] > 30 {
				vals[i] = 30
			}
			if vals[i] < -30 {
				vals[i] = -30
			}
			if math.IsNaN(float64(vals[i])) {
				vals[i] = 0
			}
		}
		x := tensor.FromSlice(vals, 1, len(vals))
		s := e.Softmax(x)
		var sum float64
		for _, v := range s.Data() {
			if v < 0 {
				return false
			}
			sum += float64(v)
		}
		return almostEq(sum, 1, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLogSoftmaxMatchesLogOfSoftmax(t *testing.T) {
	e := New(nil)
	x := tensor.FromSlice([]float32{1, 2, 3, -1}, 2, 2)
	ls := e.LogSoftmax(x)
	s := e.Softmax(x)
	for i := range s.Data() {
		if !almostEq(float64(ls.Data()[i]), math.Log(float64(s.Data()[i])), 1e-5) {
			t.Fatalf("log softmax mismatch at %d", i)
		}
	}
}

func TestBatchNormNormalizes(t *testing.T) {
	e := New(nil)
	rng := rand.New(rand.NewSource(7))
	x := tensor.Randn(rng, 3, 64, 4)
	mean, variance := e.BatchNormStats(x)
	gamma := tensor.Full(1, 4)
	beta := tensor.New(4)
	y := e.BatchNormApply(x, mean, variance, gamma, beta, 1e-5)
	// Output columns must have ~0 mean and ~1 variance.
	m2, v2 := e.BatchNormStats(y)
	for j := 0; j < 4; j++ {
		if !almostEq(float64(m2.At(j)), 0, 1e-4) {
			t.Fatalf("column %d mean %g", j, m2.At(j))
		}
		if !almostEq(float64(v2.At(j)), 1, 1e-2) {
			t.Fatalf("column %d variance %g", j, v2.At(j))
		}
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	e := New(nil)
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	w := tensor.FromSlice([]float32{1}, 1, 1, 1, 1) // 1x1 identity
	y := e.Conv2D(x, w, 1, 1, 0, 0)
	tensorsAlmostEqual(t, y, x, 1e-6)
}

func TestConv2DKnownValues(t *testing.T) {
	e := New(nil)
	// 2x2 ones filter over a 2x3 input, valid padding.
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 1, 1, 2, 3)
	w := tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	y := e.Conv2D(x, w, 1, 1, 0, 0)
	want := tensor.FromSlice([]float32{12, 16}, 1, 1, 1, 2)
	tensorsAlmostEqual(t, y, want, 1e-6)
}

func TestConv2DPaddingAndStride(t *testing.T) {
	e := New(nil)
	x := tensor.Full(1, 1, 1, 4, 4)
	w := tensor.Full(1, 1, 1, 3, 3)
	same := e.Conv2D(x, w, 1, 1, 1, 1)
	if same.Dim(2) != 4 || same.Dim(3) != 4 {
		t.Fatalf("same-padding output %v", same.Shape())
	}
	// Center of a 4x4 all-ones with 3x3 all-ones filter = 9; corner = 4.
	if same.At(0, 0, 1, 1) != 9 || same.At(0, 0, 0, 0) != 4 {
		t.Fatalf("padded conv values wrong: %g %g", same.At(0, 0, 1, 1), same.At(0, 0, 0, 0))
	}
	strided := e.Conv2D(x, w, 2, 2, 0, 0)
	if strided.Dim(2) != 1 || strided.Dim(3) != 1 {
		t.Fatalf("strided output %v", strided.Shape())
	}
}

func TestConv2DGradientsNumerically(t *testing.T) {
	// Check Conv2DGradInput/GradWeight against numerical differentiation of
	// sum(Conv2D(x, w)).
	e := New(nil)
	rng := rand.New(rand.NewSource(8))
	x := tensor.Rand(rng, 1, 1, 2, 3, 4)
	w := tensor.Rand(rng, 1, 2, 2, 2, 2)
	sh, sw, ph, pw := 1, 1, 1, 1

	loss := func() float64 { return sum(e.Conv2D(x, w, sh, sw, ph, pw)) }

	dy := tensor.Full(1, 1, 2, 3, 4) // d(sum)/dy = 1... shape of conv output
	y := e.Conv2D(x, w, sh, sw, ph, pw)
	dy = tensor.Full(1, y.Shape()...)

	dx := e.Conv2DGradInput(dy, w, x.Shape(), sh, sw, ph, pw)
	dw := e.Conv2DGradWeight(x, dy, w.Shape(), sh, sw, ph, pw)

	const h = 1e-3
	for i := 0; i < x.Size(); i += 5 {
		orig := x.Data()[i]
		x.Data()[i] = orig + h
		up := loss()
		x.Data()[i] = orig - h
		down := loss()
		x.Data()[i] = orig
		num := (up - down) / (2 * h)
		if !almostEq(num, float64(dx.Data()[i]), 1e-2) {
			t.Fatalf("dx[%d] = %g, numerical %g", i, dx.Data()[i], num)
		}
	}
	for i := 0; i < w.Size(); i += 3 {
		orig := w.Data()[i]
		w.Data()[i] = orig + h
		up := loss()
		w.Data()[i] = orig - h
		down := loss()
		w.Data()[i] = orig
		num := (up - down) / (2 * h)
		if !almostEq(num, float64(dw.Data()[i]), 1e-2) {
			t.Fatalf("dw[%d] = %g, numerical %g", i, dw.Data()[i], num)
		}
	}
}

func TestConv2DEmitsConvClass(t *testing.T) {
	e, launched := recordingEngine()
	x := tensor.Full(1, 1, 2, 8, 8)
	w := tensor.Full(1, 4, 2, 1, 3)
	e.Conv2D(x, w, 1, 1, 0, 1)
	log := launched()
	if len(log) != 1 || log[0].Class != gpu.OpConv {
		t.Fatalf("conv kernel not emitted: %+v", log)
	}
}

// TestTransposeEmitsAndCorrect drives the engine's one layout transpose,
// Permute4D, as a 2-D transpose of the trailing dimensions.
func TestTransposeEmitsAndCorrect(t *testing.T) {
	e, launched := recordingEngine()
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 1, 1, 2, 3)
	y := e.Permute4D(x, [4]int{0, 1, 3, 2})
	if y.At(0, 0, 2, 1) != 6 || y.At(0, 0, 0, 0) != 1 {
		t.Fatal("transpose wrong")
	}
	log := launched()
	if len(log) != 1 || log[0].Class != gpu.OpElementWise {
		t.Fatal("transpose kernel not emitted")
	}
}

func TestCopyH2DRecordsSparsity(t *testing.T) {
	cfg := gpu.V100()
	dev := gpu.New(cfg)
	var transfers []gpu.TransferStats
	dev.SubscribeTransfers(func(ts gpu.TransferStats) { transfers = append(transfers, ts) })
	e := New(dev)

	x := tensor.FromSlice([]float32{0, 1, 0, 1}, 4)
	e.CopyH2D("x", x)
	e.CopyH2DInt("idx", []int32{0, 5, 0})

	if len(transfers) != 2 {
		t.Fatalf("transfers = %d", len(transfers))
	}
	if transfers[0].ZeroFraction != 0.5 {
		t.Fatalf("tensor zero fraction = %g", transfers[0].ZeroFraction)
	}
	if !almostEq(transfers[1].ZeroFraction, 2.0/3, 1e-9) {
		t.Fatalf("index zero fraction = %g", transfers[1].ZeroFraction)
	}
}

func TestNilDeviceIsPureMath(t *testing.T) {
	e := New(nil)
	if e.Device() != nil {
		t.Fatal("device should be nil")
	}
	// No panic and no state: just exercise a few ops.
	x := tensor.Full(1, 4, 4)
	e.CopyH2D("x", x)
	e.MatMul(x, x)
	e.SortInt32([]int32{3, 1})
}

func BenchmarkMatMul128(b *testing.B) {
	e := New(nil)
	rng := rand.New(rand.NewSource(1))
	x := tensor.Rand(rng, 1, 128, 128)
	y := tensor.Rand(rng, 1, 128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.MatMul(x, y)
	}
}

func BenchmarkSpMM(b *testing.B) {
	e := New(nil)
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomGNP(rng, 1000, 0.01)
	x := tensor.Rand(rng, 1, 1000, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.SpMM(g, x)
	}
}

// TestOOMReportNamesTensorShape: the engine hands the allocator a tensor's
// shape instead of formatting a tag per block; the report must still read
// "tensor[rows cols]", and "tensor[]" for a scalar.
func TestOOMReportNamesTensorShape(t *testing.T) {
	for _, tc := range []struct {
		x    *tensor.Tensor
		want string
	}{{tensor.New(2, 3), "tensor[2 3]"}, {tensor.New(), "tensor[]"}} {
		cfg := gpu.V100()
		cfg.HBMBytes = 1 << 10 // below one segment: the first block fails
		e := New(gpu.New(cfg))
		err := gpu.Guard(func() { e.ReLU(tc.x) })
		oom, ok := err.(*vmem.OOMError)
		if !ok || oom.Tag != tc.want {
			t.Fatalf("ReLU on shape %v: got %v, want an OOM for %s", tc.x.Shape(), err, tc.want)
		}
	}
}
