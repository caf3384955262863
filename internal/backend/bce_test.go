package backend

import (
	"math"
	"math/big"
	"testing"
)

// The BCE kernels' fast path must return the bits of the exact expressions
// below, which are what the kernels computed before it existed and what
// they still compute outside the band and wherever the rounding test fails.

func bceExact64(x, y float64) float64 {
	return math.Log1p(math.Exp(-math.Abs(x))) + math.Max(x, 0) - x*y
}

func bceExact(x, y float32) float32 { return float32(bceExact64(float64(x), float64(y))) }

func bceBackwardExact(x, y, g float32) float32 {
	sig := 1 / (1 + math.Exp(-float64(x)))
	return (float32(sig) - y) * g
}

// refPrec is the precision of the reference values in TestBCESeriesBound.
const refPrec = 160

func refFloat(v float64) *big.Float { return new(big.Float).SetPrec(refPrec).SetFloat64(v) }

// expRef returns e^t by its Taylor series, to refPrec bits for |t| <= 1/2.
func expRef(t float64) *big.Float {
	sum, term, x := refFloat(1), refFloat(1), refFloat(t)
	for k := 1; k <= 60; k++ {
		term.Mul(term, x)
		term.Quo(term, refFloat(float64(k)))
		sum.Add(sum, term)
	}
	return sum
}

// log1pRef returns ln(1+u) = 2 atanh(u/(2+u)) by the atanh series, to
// refPrec bits for 0 <= u <= 1 (the series' ratio is at most 1/9).
func log1pRef(u *big.Float) *big.Float {
	t := new(big.Float).Quo(u, new(big.Float).Add(refFloat(2), u))
	t2 := new(big.Float).Mul(t, t)
	sum, pow := refFloat(0), new(big.Float).Set(t)
	for k := 0; k <= 60; k++ {
		sum.Add(sum, new(big.Float).Quo(pow, refFloat(float64(2*k+1))))
		pow.Mul(pow, t2)
	}
	return sum.Mul(sum, refFloat(2))
}

// errTo returns |v - ref| as a float64.
func errTo(v float64, ref *big.Float) float64 {
	d, _ := new(big.Float).Sub(refFloat(v), ref).Float64()
	return math.Abs(d)
}

// TestBCESeriesBound holds each series, and each exact expression, to 2^-50
// of a 160-bit reference over the band. The rounding test needs each within
// a quarter of the slack (2^-44) of the true value; 2^-50 is 64x inside
// that, and it is the budget the series were truncated at, so a dropped
// term fails here.
func TestBCESeriesBound(t *testing.T) {
	const bound = 0x1p-50
	const steps = 1024
	for k := -steps; k <= steps; k++ {
		x := float64(float32(bceBand * float64(k) / steps))
		ref := log1pRef(expRef(-math.Abs(x)))
		if e := errTo(log1pExpSeries(x), ref); e > bound {
			t.Fatalf("x=%v: ln(1+e^-|x|) series is %g (2^%.1f) off", x, e, math.Log2(e))
		}
		if e := errTo(math.Log1p(math.Exp(-math.Abs(x))), ref); e > bound {
			t.Fatalf("x=%v: math.Log1p(math.Exp(-|x|)) is %g (2^%.1f) off", x, e, math.Log2(e))
		}
		sig := new(big.Float).Quo(refFloat(1), new(big.Float).Add(refFloat(1), expRef(-x)))
		if e := errTo(sigmoidSeries(x), sig); e > bound {
			t.Fatalf("x=%v: sigmoid series is %g (2^%.1f) off", x, e, math.Log2(e))
		}
		if e := errTo(1/(1+math.Exp(-x)), sig); e > bound {
			t.Fatalf("x=%v: 1/(1+math.Exp(-x)) is %g (2^%.1f) off", x, e, math.Log2(e))
		}
	}
}

// nearTie returns a target y that puts the exact forward expression's
// float64 value for logit x next to a float32 rounding boundary, the case
// the rounding test exists for: without its slack, the series value and the
// exact one would round apart on some of these. It reports false when no
// finite float32 target does.
func nearTie(x float32) (float32, bool) {
	xf := float64(x)
	if xf == 0 {
		return 0, false
	}
	r0 := bceExact64(xf, 0)
	f := float32(r0)
	nb := math.Nextafter32(f, float32(math.Inf(1)))
	if float64(f) > r0 {
		nb = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	mid := (float64(f) + float64(nb)) / 2
	y0 := float32((r0 - mid) / xf)
	best, bestErr := y0, math.Inf(1)
	for _, y := range []float32{math.Nextafter32(y0, float32(math.Inf(-1))), y0, math.Nextafter32(y0, float32(math.Inf(1)))} {
		if e := math.Abs(bceExact64(xf, float64(y)) - mid); e < bestErr {
			best, bestErr = y, e
		}
	}
	return best, !math.IsInf(float64(best), 0) && !math.IsNaN(float64(best))
}

// bceSweepLogits returns float32 logits across |x| <= 0.3, past the band on
// both sides: a stride through every bit pattern, 64 ulp either side of
// ±1/4, and the logits ±(2k+1)·2^-23 and ±(2k+1)·2^-24, whose sigmoid is
// next to a float32 rounding boundary (1/2 + x/4 lands on one).
func bceSweepLogits() []float32 {
	var xs []float32
	top := math.Float32bits(0.3)
	for b := uint32(0); b <= top; b += 1<<13 + 7 {
		xs = append(xs, math.Float32frombits(b))
	}
	edge := math.Float32bits(bceBand)
	for b := edge - 64; b <= edge+64; b++ {
		xs = append(xs, math.Float32frombits(b))
	}
	for k := 0; k < 1<<12; k++ {
		xs = append(xs, float32(2*k+1)*0x1p-23, float32(2*k+1)*0x1p-24)
	}
	for i, n := 0, len(xs); i < n; i++ {
		xs = append(xs, -xs[i])
	}
	return xs
}

// TestBCEFastPathBits runs both kernels on every backend over a sweep of
// float32 logits and several targets and gradient scales, and compares
// every output bit with the exact expressions.
func TestBCEFastPathBits(t *testing.T) {
	xs := bceSweepLogits()
	var logits, targets []float32
	for _, y := range []float32{0, 1, 0.5, -1.5, 1e-3, 3e4} {
		for _, x := range xs {
			logits, targets = append(logits, x), append(targets, y)
		}
	}
	for _, x := range xs {
		if y, ok := nearTie(x); ok {
			logits, targets = append(logits, x), append(targets, y)
		}
	}
	want := make([]float32, len(logits))
	for i := range want {
		want[i] = bceExact(logits[i], targets[i])
	}
	got := make([]float32, len(logits))
	for _, arm := range []struct {
		name string
		be   Backend
	}{{"serial", NewSerial()}, {"parallel", NewParallel()}, {"cutoff1", cpuBackend{cutoff: 1}}} {
		arm.be.BCEWithLogits(logits, targets, got)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s BCEWithLogits(x=%v, y=%v) = %v (%#08x), exact %v (%#08x)", arm.name,
					logits[i], targets[i], got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
		for _, g := range []float32{1, 1.0 / (2400 * 2400), -0.375, 0} {
			arm.be.BCEWithLogitsBackward(logits, targets, got, g)
			for i := range got {
				if w := bceBackwardExact(logits[i], targets[i], g); math.Float32bits(got[i]) != math.Float32bits(w) {
					t.Fatalf("%s BCEWithLogitsBackward(x=%v, y=%v, g=%v) = %v (%#08x), exact %v (%#08x)", arm.name,
						logits[i], targets[i], g, got[i], math.Float32bits(got[i]), w, math.Float32bits(w))
				}
			}
		}
	}
}

// FuzzBCEWithLogitsEquivalence lets the fuzzer pick the logit, the target
// and the gradient scale; any input where a kernel's bits leave the exact
// expression's is a bug.
func FuzzBCEWithLogitsEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, x, y, g float32) {
		be := NewSerial()
		out := make([]float32, 1)
		be.BCEWithLogits([]float32{x}, []float32{y}, out)
		if w := bceExact(x, y); math.Float32bits(out[0]) != math.Float32bits(w) {
			t.Fatalf("BCEWithLogits(x=%v, y=%v) = %#08x, exact %#08x", x, y, math.Float32bits(out[0]), math.Float32bits(w))
		}
		be.BCEWithLogitsBackward([]float32{x}, []float32{y}, out, g)
		if w := bceBackwardExact(x, y, g); math.Float32bits(out[0]) != math.Float32bits(w) {
			t.Fatalf("BCEWithLogitsBackward(x=%v, y=%v, g=%v) = %#08x, exact %#08x", x, y, g, math.Float32bits(out[0]), math.Float32bits(w))
		}
	})
}
