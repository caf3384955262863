package ops

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gnnmark/internal/graph"
	"gnnmark/internal/tensor"
)

// Semantic identities of the op engine, checked with testing/quick where
// input shapes allow.

func TestMatMulIdentityProperty(t *testing.T) {
	e := New(nil)
	f := func(raw []float32) bool {
		if len(raw) < 4 {
			return true
		}
		n := 4
		vals := make([]float32, n*n)
		for i := range vals {
			v := raw[i%len(raw)]
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || v > 1e10 || v < -1e10 {
				v = 1
			}
			vals[i] = v
		}
		a := tensor.FromSlice(vals, n, n)
		id := tensor.New(n, n)
		for i := 0; i < n; i++ {
			id.Set(1, i, i)
		}
		got := e.MatMul(a, id)
		for i := range got.Data() {
			if got.Data()[i] != a.Data()[i] {
				return false
			}
		}
		got2 := e.MatMul(id, a)
		for i := range got2.Data() {
			if got2.Data()[i] != a.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSpMMIdentityAdjacency(t *testing.T) {
	// SpMM with the identity adjacency returns X unchanged.
	e := New(nil)
	rng := rand.New(rand.NewSource(1))
	n, f := 12, 5
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{Src: int32(i), Dst: int32(i)})
	}
	id := graph.FromEdges(n, n, edges)
	x := tensor.Rand(rng, 2, n, f)
	got := e.SpMM(id, x)
	for i := range x.Data() {
		if got.Data()[i] != x.Data()[i] {
			t.Fatal("identity SpMM changed X")
		}
	}
}

func TestSpMMLinearityProperty(t *testing.T) {
	// SpMM(A, x+y) == SpMM(A, x) + SpMM(A, y).
	e := New(nil)
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomGNP(rng, 15, 0.25)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := tensor.Rand(r, 1, 15, 4)
		y := tensor.Rand(r, 1, 15, 4)
		lhs := e.SpMM(g, e.Add(x, y))
		rhs := e.Add(e.SpMM(g, x), e.SpMM(g, y))
		for i := range lhs.Data() {
			if math.Abs(float64(lhs.Data()[i]-rhs.Data()[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherArangeIsIdentity(t *testing.T) {
	e := New(nil)
	rng := rand.New(rand.NewSource(3))
	x := tensor.Rand(rng, 1, 9, 4)
	idx := make([]int32, 9)
	for i := range idx {
		idx[i] = int32(i)
	}
	for _, got := range []*tensor.Tensor{e.GatherRows(x, idx), e.IndexSelectRows(x, idx)} {
		for i := range x.Data() {
			if got.Data()[i] != x.Data()[i] {
				t.Fatal("arange gather changed X")
			}
		}
	}
}

func TestSortIsPermutationProperty(t *testing.T) {
	e := New(nil)
	f := func(keys []int32) bool {
		sorted := e.SortInt32(keys)
		if len(sorted) != len(keys) {
			return false
		}
		count := map[int32]int{}
		for _, k := range keys {
			count[k]++
		}
		prev := int32(math.MinInt32)
		for _, k := range sorted {
			if k < prev {
				return false
			}
			prev = k
			count[k]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		// Argsort applies to the same ordering.
		perm := e.ArgsortInt32(keys)
		for i := 1; i < len(perm); i++ {
			if keys[perm[i-1]] > keys[perm[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	e := New(nil)
	f := func(seed int64, rRaw, cRaw uint8) bool {
		r := int(rRaw%7) + 1
		c := int(cRaw%7) + 1
		x := tensor.Rand(rand.New(rand.NewSource(seed)), 1, 1, 1, r, c)
		y := e.Permute4D(e.Permute4D(x, [4]int{0, 1, 3, 2}), [4]int{0, 1, 3, 2})
		for i := range x.Data() {
			if y.Data()[i] != x.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxCrossEntropyConsistency(t *testing.T) {
	// Row-wise: -log(softmax(x)[label]) equals the log-softmax pick.
	e := New(nil)
	rng := rand.New(rand.NewSource(4))
	x := tensor.Rand(rng, 3, 6, 5)
	soft := e.Softmax(x)
	logSoft := e.LogSoftmax(x)
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			want := math.Log(float64(soft.At(i, j)))
			if math.Abs(want-float64(logSoft.At(i, j))) > 1e-4 {
				t.Fatalf("log softmax inconsistent at (%d,%d)", i, j)
			}
		}
	}
}

func TestScatterAddCommutesWithPermutationProperty(t *testing.T) {
	// Scatter-add is order-independent: permuting (src rows, idx) together
	// gives the same result.
	e := New(nil)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, fdim := 10, 5, 3
		src := tensor.Rand(rng, 1, m, fdim)
		idx := make([]int32, m)
		for i := range idx {
			idx[i] = int32(rng.Intn(n))
		}
		dst1 := tensor.New(n, fdim)
		e.ScatterAddRows(dst1, src, idx)

		perm := rng.Perm(m)
		src2 := tensor.New(m, fdim)
		idx2 := make([]int32, m)
		for i, p := range perm {
			copy(src2.Row(i), src.Row(p))
			idx2[i] = idx[p]
		}
		dst2 := tensor.New(n, fdim)
		e.ScatterAddRows(dst2, src2, idx2)
		for i := range dst1.Data() {
			if math.Abs(float64(dst1.Data()[i]-dst2.Data()[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcatSliceInverseProperty(t *testing.T) {
	e := New(nil)
	f := func(seed int64, faRaw, fbRaw uint8) bool {
		fa := int(faRaw%5) + 1
		fb := int(fbRaw%5) + 1
		rng := rand.New(rand.NewSource(seed))
		a := tensor.Rand(rng, 1, 4, fa)
		b := tensor.Rand(rng, 1, 4, fb)
		c := e.Concat2D(a, b)
		a2 := e.SliceCols2D(c, 0, fa)
		b2 := e.SliceCols2D(c, fa, fa+fb)
		for i := range a.Data() {
			if a2.Data()[i] != a.Data()[i] {
				return false
			}
		}
		for i := range b.Data() {
			if b2.Data()[i] != b.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
