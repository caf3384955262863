package loader

import (
	"fmt"
	"testing"

	"gnnmark/internal/tensor"
)

// produceSquares is a pure producer: batch i stages a tensor whose values
// are a function of i only.
func produceSquares(i int, b *Batch) {
	t := b.Stage("x", 4)
	for j := 0; j < 4; j++ {
		t.Set(float32(i*i+j), j)
	}
	b.PutInts("idx", []int32{int32(i)})
}

func drain(l *Loader, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		b := l.Next()
		if b == nil {
			break
		}
		out = append(out, fmt.Sprintf("%d:%v:%v", b.Index, b.Tensor("x").Data(), b.Ints("idx")))
	}
	return out
}

// Delivery is in index order with deterministic content, whatever the
// worker count or prefetch depth.
func TestDeterministicAcrossConfigs(t *testing.T) {
	const n = 64
	base := New(Config{}, produceSquares)
	want := drain(base, n)
	if len(want) != n {
		t.Fatalf("inline loader yielded %d batches", len(want))
	}
	base.Close()
	if base.Next() != nil {
		t.Fatal("inline loader: Next after Close != nil")
	}
	for _, cfg := range []Config{
		{Depth: 1},
		{Depth: 2, Workers: 1},
		{Depth: 4, Workers: 3},
		{Depth: 8, Workers: 8},
		{Depth: 16},
	} {
		l := New(cfg, produceSquares)
		got := drain(l, n)
		l.Close()
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("cfg %+v: batch %d = %q, want %q", cfg, i, got[i], want[i])
			}
		}
		if l.Next() != nil {
			t.Fatalf("cfg %+v: Next after Close != nil", cfg)
		}
	}
}

// A loader keeps producing until Close, and returns nil after it.
func TestUnboundedProducesUntilClose(t *testing.T) {
	l := New(Config{Depth: 4}, produceSquares)
	for i := 0; i < 100; i++ {
		b := l.Next()
		if b == nil || b.Index != i {
			t.Fatalf("batch %d: %+v", i, b)
		}
	}
	l.Close()
	if l.Next() != nil {
		t.Fatal("Next after Close != nil")
	}
	l.Close() // idempotent
}

// Staged buffers recycle when the consumer moves on: the pool hands the
// same backing arrays back, and the content is still right (zero-filled
// on reuse).
func TestStagingRecyclesThroughPool(t *testing.T) {
	l := New(Config{Depth: 2}, produceSquares)
	defer l.Close()
	for i := 0; i < 32; i++ {
		b := l.Next()
		for j := 0; j < 4; j++ {
			if got := b.Tensor("x").At(j); got != float32(b.Index*b.Index+j) {
				t.Fatalf("batch %d elem %d = %v", b.Index, j, got)
			}
		}
	}
}

// Close mid-stream drains staged batches without deadlock (workers may be
// parked on a full channel).
func TestCloseMidStream(t *testing.T) {
	for _, cfg := range []Config{{Depth: 1}, {Depth: 8, Workers: 2}, {Depth: 16, Workers: 8}} {
		l := New(cfg, produceSquares)
		for i := 0; i < 3; i++ {
			if b := l.Next(); b == nil {
				t.Fatalf("cfg %+v: early nil", cfg)
			}
		}
		l.Close()
	}
}

// A static source staged by copy is neither handed out nor recycled: the
// batch holds a pooled copy, and recycling that copy leaves the source
// intact.
func TestPutBorrowsWithoutRecycle(t *testing.T) {
	static := tensor.FromSlice([]float32{1, 2, 3}, 3)
	l := New(Config{Depth: 2}, func(i int, b *Batch) {
		b.StageFrom("copy", static)
	})
	for i := 0; i < 8; i++ {
		b := l.Next()
		if b.Tensor("copy") == static {
			t.Fatal("the static source itself was staged")
		}
		if b.Tensor("copy").At(1) != 2 {
			t.Fatal("staged copy wrong")
		}
	}
	l.Close()
	if static.At(2) != 3 {
		t.Fatal("static source mutated by recycle")
	}
}

func TestMissingNamePanics(t *testing.T) {
	l := New(Config{}, func(i int, b *Batch) {})
	b := l.Next()
	defer func() {
		if recover() == nil {
			t.Fatal("missing tensor name must panic")
		}
	}()
	b.Tensor("nope")
}
