package tensor

import (
	"math"
	"math/rand"
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

func TestFillZeroCopyFrom(t *testing.T) {
	x := Full(3, 2, 2)
	if x.Sum() != 12 {
		t.Fatalf("Full: sum = %g", x.Sum())
	}
	x.Zero()
	if x.Sum() != 0 {
		t.Fatal("Zero failed")
	}
	y := Full(2, 2, 2)
	x.CopyFrom(y)
	if x.Sum() != 8 {
		t.Fatal("CopyFrom failed")
	}
}

func TestStatsHelpers(t *testing.T) {
	x := FromSlice([]float32{0, -2, 0, 4}, 4)
	if got := x.ZeroFraction(); got != 0.5 {
		t.Fatalf("ZeroFraction = %g, want 0.5", got)
	}
	if got := x.Mean(); got != 0.5 {
		t.Fatalf("Mean = %g", got)
	}
	if got := x.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %g", got)
	}
	var empty = New(0)
	if empty.ZeroFraction() != 0 || empty.Mean() != 0 || empty.MaxAbs() != 0 {
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
