package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewShapesAndSize(t *testing.T) {
	tests := []struct {
		shape []int
		size  int
	}{
		{[]int{}, 1},
		{[]int{0}, 0},
		{[]int{5}, 5},
		{[]int{3, 4}, 12},
		{[]int{2, 3, 4}, 24},
	}
	for _, tt := range tests {
		x := New(tt.shape...)
		if x.Size() != tt.size {
			t.Errorf("New(%v).Size() = %d, want %d", tt.shape, x.Size(), tt.size)
		}
		if x.Dims() != len(tt.shape) {
			t.Errorf("Dims = %d, want %d", x.Dims(), len(tt.shape))
		}
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(2, -1)
}

func TestFromSliceAndAtSet(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := x.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %g, want 6", got)
	}
	x.Set(42, 0, 1)
	if got := x.At(0, 1); got != 42 {
		t.Fatalf("after Set, At(0,1) = %g", got)
	}
	if x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatal("Dim broken")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	x.At(2, 0)
}

func TestRowIsView(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	r := x.Row(1)
	r[0] = 99
	if x.At(1, 0) != 99 {
		t.Fatal("Row must be a view")
	}
}

func TestReshape(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	if y.At(2, 1) != 6 {
		t.Fatal("reshape reorders data")
	}
	y.Set(7, 0, 0)
	if x.At(0, 0) != 7 {
		t.Fatal("Reshape must share storage")
	}
	z := x.Reshape(-1, 2)
	if z.Dim(0) != 3 {
		t.Fatalf("inferred dim = %d, want 3", z.Dim(0))
	}
	if w := x.Reshape(6); w.Dims() != 1 || w.Dim(0) != 6 {
		t.Fatal("flatten reshape broken")
	}
}

func TestReshapePanics(t *testing.T) {
	x := New(2, 3)
	for _, shape := range [][]int{{4}, {-1, -1}, {-1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reshape(%v) should panic", shape)
				}
			}()
			x.Reshape(shape...)
		}()
	}
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Set(9, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
	if !x.SameShape(y) {
		t.Fatal("clone shape differs")
	}
}

// sum adds x's elements in float64.
func sum(x *Tensor) float64 {
	var s float64
	for _, v := range x.Data() {
		s += float64(v)
	}
	return s
}

func TestFillZeroCopyFrom(t *testing.T) {
	x := Full(3, 2, 2)
	if sum(x) != 12 {
		t.Fatalf("Full: sum = %g", sum(x))
	}
	x.Zero()
	if sum(x) != 0 {
		t.Fatal("Zero failed")
	}
	y := Full(2, 2, 2)
	x.CopyFrom(y)
	if sum(x) != 8 {
		t.Fatal("CopyFrom failed")
	}
}

func TestStatsHelpers(t *testing.T) {
	x := FromSlice([]float32{0, -2, 0, 4}, 4)
	if got := x.ZeroFraction(); got != 0.5 {
		t.Fatalf("ZeroFraction = %g, want 0.5", got)
	}
	if got := x.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %g", got)
	}
	var empty = New(0)
	if empty.ZeroFraction() != 0 || empty.MaxAbs() != 0 {
		t.Fatal("empty tensor stats must be 0")
	}
}

func TestRandSeededDeterministic(t *testing.T) {
	a := Rand(rand.New(rand.NewSource(1)), 1, 10)
	b := Rand(rand.New(rand.NewSource(1)), 1, 10)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("Rand must be deterministic per seed")
		}
	}
	c := Randn(rand.New(rand.NewSource(2)), 0.1, 1000)
	if c.MaxAbs() == 0 {
		t.Fatal("Randn produced all zeros")
	}
	if c.MaxAbs() > 1 {
		t.Fatalf("Randn std 0.1 produced |x|=%g, improbable", c.MaxAbs())
	}
}

func TestReshapeRoundTripProperty(t *testing.T) {
	// Property: reshape to flat and back preserves every element.
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		x := FromSlice(vals, len(vals))
		y := x.Reshape(1, len(vals)).Reshape(len(vals))
		for i := range vals {
			v1, v2 := x.At(i), y.At(i)
			if v1 != v2 && !(math.IsNaN(float64(v1)) && math.IsNaN(float64(v2))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroFractionProperty(t *testing.T) {
	// Property: 0 <= ZeroFraction <= 1 and it matches a direct count.
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		x := FromSlice(vals, len(vals))
		zf := x.ZeroFraction()
		n := 0
		for _, v := range vals {
			if v == 0 {
				n++
			}
		}
		return zf >= 0 && zf <= 1 && math.Abs(zf-float64(n)/float64(len(vals))) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	if got := New(2, 3).String(); got != "Tensor[2 3]" {
		t.Fatalf("String = %q", got)
	}
}

// TestAtSetDoNotAllocate: the bounds panic formats a copy of the index, so
// the variadic index of an in-bounds At or Set stays on the caller's stack.
// Formatting the index itself made every call allocate it.
func TestAtSetDoNotAllocate(t *testing.T) {
	m, v := New(3, 4), New(2, 3, 4, 5)
	got := testing.AllocsPerRun(100, func() {
		m.Set(m.At(2, 3)+1, 1, 2)
		v.Set(v.At(1, 2, 3, 4)+1, 0, 1, 2, 3)
	})
	if got != 0 {
		t.Fatalf("2-D and 4-D At and Set made %.0f allocations, want 0", got)
	}
}

// TestShapeIsOwnedAndFull: a shape of up to four dimensions lives in the
// tensor's header, copied from the caller's slice, with no spare capacity
// for an append to write into the header; a longer one is copied to a slice
// of its own. A scalar's shape stays nil.
func TestShapeIsOwnedAndFull(t *testing.T) {
	for _, shape := range [][]int{{7}, {2, 3}, {2, 3, 4, 5}, {1, 2, 1, 2, 1}} {
		in := append([]int(nil), shape...)
		for _, x := range []*Tensor{New(in...), FromSlice(make([]float32, checkShape(in)), in...), new(Arena).New(in...), New(checkShape(in)).Reshape(in...)} {
			in[0] = 99
			s := x.Shape()
			if !slices.Equal(s, shape) || len(s) <= 4 && cap(s) != len(s) {
				t.Fatalf("shape %v (cap %d), want %v at full capacity", s, cap(s), shape)
			}
			_ = append(s, 9)
			if s2 := x.Shape(); !slices.Equal(s2, shape) {
				t.Fatalf("an append to Shape() wrote into the tensor: %v", s2)
			}
			in[0] = shape[0]
		}
	}
	if New().Shape() != nil || new(Arena).New().Shape() != nil {
		t.Fatal("a scalar's shape is not nil")
	}
}
