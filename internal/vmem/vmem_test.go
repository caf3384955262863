package vmem

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestRoundSize(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{0, 512}, {1, 512}, {512, 512}, {513, 1024}, {4096, 4096}, {4097, 4608},
	}
	for _, c := range cases {
		if got := RoundSize(c.in); got != c.want {
			t.Errorf("RoundSize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSegmentSize(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{512, SmallSegment},
		{SmallSize, SmallSegment},
		{SmallSize + 512, LargeBuffer},
		{MinLargeAlloc, LargeBuffer},
		{MinLargeAlloc + 512, 12 << 20}, // 10MiB+512 rounds to 12MiB
		{64 << 20, 64 << 20},
	}
	for _, c := range cases {
		if got := SegmentSize(c.in); got != c.want {
			t.Errorf("SegmentSize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAllocBasics(t *testing.T) {
	a := New(1<<30, nil)
	b1, err := a.Alloc(100, "t1")
	if err != nil {
		t.Fatal(err)
	}
	if b1.size != 512 {
		t.Fatalf("size = %d, want 512", b1.size)
	}
	if b1.Addr()%MinBlockSize != 0 {
		t.Fatalf("addr %#x not %d-aligned", b1.Addr(), MinBlockSize)
	}
	b2, err := a.Alloc(100, "t2")
	if err != nil {
		t.Fatal(err)
	}
	if b1.Addr() == b2.Addr() {
		t.Fatal("distinct allocations share an address")
	}
	s := a.Stats()
	if s.Allocs != 2 || s.Live != 1024 || s.Reserved != SmallSegment {
		t.Fatalf("stats = %+v", s)
	}
	// Both small blocks came from one split segment.
	if s.Splits == 0 {
		t.Fatal("expected a split serving small allocs from the 2MiB segment")
	}
}

func TestFreeReuseSameAddress(t *testing.T) {
	a := New(1<<30, nil)
	b, _ := a.Alloc(4096, "x")
	addr := b.Addr()
	a.Free(b)
	b2, _ := a.Alloc(4096, "y")
	if b2.Addr() != addr {
		t.Fatalf("free-list reuse should hand back the same address: %#x vs %#x", b2.Addr(), addr)
	}
	s := a.Stats()
	if s.ReuseHits == 0 {
		t.Fatal("expected a reuse hit")
	}
}

func TestCoalesce(t *testing.T) {
	a := New(1<<30, nil)
	// Three adjacent blocks from one segment; free middle, then neighbors.
	b1, _ := a.Alloc(SmallSize/2, "a")
	b2, _ := a.Alloc(SmallSize/2, "b")
	b3, _ := a.Alloc(SmallSize/2, "c")
	a.Free(b2)
	a.Free(b1) // coalesces with b2's range
	a.Free(b3) // coalesces everything back into the full segment
	s := a.Stats()
	if s.Coalesces < 2 {
		t.Fatalf("coalesces = %d, want >= 2", s.Coalesces)
	}
	if s.Live != 0 {
		t.Fatalf("live = %d after freeing everything", s.Live)
	}
	// The whole segment is one free block again: a segment-sized alloc from
	// the small pool is impossible, but a fresh small alloc must reuse it.
	b4, _ := a.Alloc(SmallSize, "d")
	if b4.Addr() != b1.Addr() {
		t.Fatalf("coalesced segment should serve from its base: %#x vs %#x", b4.Addr(), b1.Addr())
	}
}

func TestDoubleFreeAndPlaceholderAreNoOps(t *testing.T) {
	a := New(1<<30, nil)
	b, _ := a.Alloc(100, "x")
	a.Free(b)
	frees := a.Stats().Frees
	a.Free(b) // double free: no-op
	a.Free(Placeholder(1<<40, 512))
	a.Free(nil)
	if got := a.Stats().Frees; got != frees {
		t.Fatalf("frees went from %d to %d on no-op frees", frees, got)
	}
}

func TestOOMAndDump(t *testing.T) {
	a := New(4<<20, nil) // two small segments only
	var blocks []*Block
	for i := 0; i < 4; i++ {
		b, err := a.Alloc(SmallSize, "chunk")
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		blocks = append(blocks, b)
	}
	_, err := a.Alloc(SmallSize, "straw")
	oom, ok := err.(*OOMError)
	if !ok {
		t.Fatalf("want *OOMError, got %v", err)
	}
	if oom.Capacity != 4<<20 || oom.Tag != "straw" {
		t.Fatalf("oom = %+v", oom)
	}
	if len(oom.TopLive) != 4 {
		t.Fatalf("top live = %d entries, want 4", len(oom.TopLive))
	}
	msg := oom.Error()
	for _, want := range []string{"simulated device OOM", "straw", "top live allocations", "chunk"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("OOM message missing %q:\n%s", want, msg)
		}
	}
	if a.Stats().OOMs != 1 {
		t.Fatalf("ooms = %d", a.Stats().OOMs)
	}
	_ = blocks
}

// TestOOMReportNamesShapes: a shape handed to Alloc is formatted only when a
// report is built, and reads there as "tensor%v" did when the caller
// formatted it per allocation — a scalar's empty shape included.
func TestOOMReportNamesShapes(t *testing.T) {
	a := New(2<<20, nil)
	shape := []int{128, 64}
	for _, alloc := range []struct {
		bytes int64
		shape []int
	}{{SmallSize, shape}, {SmallSize / 2, []int{}}, {SmallSize / 4, nil}} {
		if _, err := a.Alloc(alloc.bytes, "tensor", alloc.shape...); err != nil {
			t.Fatal(err)
		}
	}
	_, err := a.Alloc(SmallSize, "tensor", 4, 8)
	oom, ok := err.(*OOMError)
	if !ok {
		t.Fatalf("want *OOMError, got %v", err)
	}
	got := []string{oom.Tag}
	for _, b := range oom.TopLive {
		got = append(got, b.Tag)
	}
	if want := []string{"tensor[4 8]", "tensor[128 64]", "tensor[]", "tensor"}; !slices.Equal(got, want) {
		t.Fatalf("report names %q, want %q", got, want)
	}
}

func TestEmptyCacheRetryAvoidsOOM(t *testing.T) {
	// 24MiB budget: a cached small segment (2MiB) and a cached 18MiB large
	// segment leave no room for a fresh 20MiB reservation, and the 20MiB
	// request fits no cached block — the allocator must release the
	// fully-free cached segments and succeed.
	a := New(24<<20, nil)
	small, _ := a.Alloc(100, "small")
	a.Free(small)
	big, _ := a.Alloc(18<<20, "big1")
	a.Free(big)
	if _, err := a.Alloc(20<<20, "big2"); err != nil {
		t.Fatalf("expected empty-cache retry to succeed: %v", err)
	}
	if a.Stats().SegmentsFreed == 0 {
		t.Fatal("expected a cached segment release")
	}
}

func TestPeakAndReset(t *testing.T) {
	a := New(1<<30, nil)
	b1, _ := a.Alloc(8<<20, "x")
	a.Free(b1)
	s := a.Stats()
	if s.PeakLive < 8<<20 {
		t.Fatalf("peak live = %d", s.PeakLive)
	}
	a.ResetPeak()
	if s2 := a.Stats(); s2.PeakLive != s2.Live {
		t.Fatalf("after ResetPeak, peak %d != live %d", s2.PeakLive, s2.Live)
	}
}

func TestStatsDerived(t *testing.T) {
	var s Stats
	if s.ReuseRate() != 0 || s.PeakFragmentation() != 0 {
		t.Fatal("zero stats should have zero derived rates")
	}
	s = Stats{Allocs: 4, ReuseHits: 1, Reserved: 100, Live: 75}
	if s.ReuseRate() != 0.25 {
		t.Fatalf("reuse rate = %v", s.ReuseRate())
	}
}

// TestDeterministicAddresses: identical alloc/free sequences must yield
// identical addresses — the cache model replays access streams against
// these addresses, and the suite's golden-determinism test depends on it.
func TestDeterministicAddresses(t *testing.T) {
	run := func() []uint64 {
		a := New(1<<30, nil)
		var addrs []uint64
		var live []*Block
		sizes := []int64{100, 4096, SmallSize, 3 << 20, 512, 12 << 20, 2048}
		for round := 0; round < 3; round++ {
			for i, sz := range sizes {
				b, err := a.Alloc(sz, "t")
				if err != nil {
					t.Fatal(err)
				}
				addrs = append(addrs, b.Addr())
				live = append(live, b)
				if i%2 == 1 {
					a.Free(live[len(live)-2])
				}
			}
			for _, b := range live {
				a.Free(b)
			}
			live = live[:0]
		}
		return addrs
	}
	a1, a2 := run(), run()
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("address %d differs: %#x vs %#x", i, a1[i], a2[i])
		}
	}
}

// TestConcurrentAllocFree exercises the mutex under -race.
func TestConcurrentAllocFree(t *testing.T) {
	a := New(1<<30, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var blocks []*Block
			for i := 0; i < 200; i++ {
				b, err := a.Alloc(int64(512*(1+(g+i)%7)), "conc")
				if err != nil {
					t.Error(err)
					return
				}
				blocks = append(blocks, b)
				if len(blocks) > 4 {
					a.Free(blocks[0])
					blocks = blocks[1:]
				}
			}
			for _, b := range blocks {
				a.Free(b)
			}
		}(g)
	}
	wg.Wait()
	if s := a.Stats(); s.Live != 0 {
		t.Fatalf("live = %d after all frees", s.Live)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{100, "100 B"}, {2048, "2.0 KiB"}, {3 << 20, "3.00 MiB"}, {16 << 30, "16.00 GiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}
