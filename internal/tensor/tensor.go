// Package tensor provides dense row-major float32 tensors: the numeric
// substrate for the GNNMark training stack. Tensors here are plain data;
// operator semantics (and the GPU-kernel lowering that accompanies them)
// live in internal/ops.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Tensor is a dense row-major float32 array with a shape. The zero value is
// not useful; construct with New, FromSlice, or the random initializers.
type Tensor struct {
	shape []int
	data  []float32
	// dims holds the shape of a tensor of at most four dimensions, so the
	// header and its shape are one allocation; shape is then dims[:n:n],
	// whose full capacity makes an append to Shape() copy.
	dims [4]int
}

// setShape stores a copy of shape as t's and returns t. A scalar's shape
// stays nil.
func (t *Tensor) setShape(shape []int) *Tensor {
	switch n := len(shape); {
	case n == 0:
	case n <= len(t.dims):
		t.shape = t.dims[:n:n]
		copy(t.shape, shape)
	default:
		t.shape = append([]int(nil), shape...)
	}
	return t
}

// New returns a zero-filled tensor of the given shape. A zero-dimensional
// call returns a scalar tensor of size 1.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return (&Tensor{data: make([]float32, n)}).setShape(shape)
}

// FromSlice wraps data (not copied) with shape. It panics when the element
// count does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", slices.Clone(shape), n, len(data)))
	}
	return (&Tensor{data: data}).setShape(shape)
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Rand returns a tensor with elements uniform in [-scale, scale), drawn from
// rng (which must be non-nil, keeping all initialization seeded).
func Rand(rng *rand.Rand, scale float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = (rng.Float32()*2 - 1) * scale
	}
	return t
}

// Randn returns a tensor with normally distributed elements (mean 0, the
// given std deviation).
func Randn(rng *rand.Rand, std float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64()) * std
	}
	return t
}

func checkShape(shape []int) int {
	n := 1
	for _, s := range shape {
		if s < 0 {
			// Every panic of this file formats a clone of a variadic
			// argument: formatting it would make it escape, and so make
			// every call allocate it.
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", slices.Clone(shape)))
		}
		n *= s
	}
	return n
}

// Shape returns the tensor's dimensions. Callers must not mutate it.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total element count.
func (t *Tensor) Size() int { return len(t.data) }

// Data exposes the backing slice (row-major).
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape of equal size.
// One dimension may be -1, which is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	r := (&Tensor{data: t.data}).setShape(shape)
	out := r.shape
	infer := -1
	known := 1
	for i, s := range out {
		if s == -1 {
			if infer != -1 {
				panic("tensor: Reshape allows at most one -1 dimension")
			}
			infer = i
			continue
		}
		if s < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", slices.Clone(shape)))
		}
		known *= s
	}
	if infer >= 0 {
		if known == 0 || t.Size()%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, slices.Clone(shape)))
		}
		out[infer] = t.Size() / known
		known *= out[infer]
	}
	if known != t.Size() {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes size", t.shape, slices.Clone(shape)))
	}
	return r
}

// offset computes the flat index for a multi-dimensional index.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", slices.Clone(idx), t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

// Row returns a view of row i of a 2-D tensor (shared storage).
func (t *Tensor) Row(i int) []float32 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row requires 2-D, got %v", t.shape))
	}
	cols := t.shape[1]
	return t.data[i*cols : (i+1)*cols]
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// CopyFrom copies src's data into t; shapes must have equal sizes.
func (t *Tensor) CopyFrom(src *Tensor) {
	if t.Size() != src.Size() {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// ZeroFraction returns the fraction of elements equal to zero — the metric
// behind the paper's transfer-sparsity study (Figures 7 and 8).
func (t *Tensor) ZeroFraction() float64 {
	if len(t.data) == 0 {
		return 0
	}
	z := 0
	for _, v := range t.data {
		if v == 0 {
			z++
		}
	}
	return float64(z) / float64(len(t.data))
}

// MaxAbs returns the maximum absolute element, or 0 for empty tensors.
func (t *Tensor) MaxAbs() float64 {
	var m float64
	for _, v := range t.data {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// String renders a compact description, not full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
