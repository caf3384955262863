package gpu

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewCacheGeometry(t *testing.T) {
	tests := []struct {
		name              string
		size, line, ways  int
		wantSets, wantWay int
	}{
		{"l1-like", 128 << 10, 128, 4, 256, 4},
		{"l2-like", 6144 << 10, 64, 16, 4096, 16},
		{"tiny", 1024, 64, 2, 8, 2},
		{"non-pow2-rounds-down", 3 * 1024, 64, 2, 16, 2},
		{"degenerate-one-set", 64, 64, 4, 1, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := NewCache(tt.size, tt.line, tt.ways)
			if c.numSets != tt.wantSets {
				t.Errorf("sets = %d, want %d", c.numSets, tt.wantSets)
			}
			if c.ways != tt.wantWay {
				t.Errorf("ways = %d, want %d", c.ways, tt.wantWay)
			}
			if c.lineBytes != tt.line {
				t.Errorf("line = %d, want %d", c.lineBytes, tt.line)
			}
		})
	}
}

func TestCachePanicsOnBadGeometry(t *testing.T) {
	for _, g := range []struct {
		name             string
		size, line, ways int
	}{
		{"zero line", 1024, 0, 4},
		{"zero ways", 1024, 64, 0},
		{"zero size", 0, 64, 4},
		{"96-byte line", 3072, 96, 4},
	} {
		t.Run(g.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewCache(g.size, g.line, g.ways)
		})
	}
}

// accessLineRef is AccessLine as it was before the hit scan and the victim
// search were separated: one pass over the set that tracks the LRU way while
// it looks for the tag.
func (c *Cache) accessLineRef(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	base := set * c.ways
	c.clock++

	lruWay, lruStamp := 0, ^uint64(0)
	for w := 0; w < c.ways; w++ {
		idx := base + w
		if c.tags[idx] == line {
			c.order[idx] = c.clock
			c.hits++
			return true
		}
		if c.order[idx] < lruStamp {
			lruStamp = c.order[idx]
			lruWay = w
		}
	}
	idx := base + lruWay
	c.tags[idx] = line
	c.order[idx] = c.clock
	c.misses++
	return false
}

// invalidateRef is Invalidate as it was before sets carried a generation
// stamp: every way of every set is cleared on the spot. The reference replay
// uses it, so its caches never hold a stale set.
func (c *Cache) invalidateRef() {
	for i := range c.tags {
		c.tags[i] = invalidTag
		c.order[i] = 0
	}
	c.clock = 0
	c.ResetCounters()
}

// contents returns the tags and LRU stamps the cache holds, reading a set
// that has not been touched since the last Invalidate as the empty set it
// stands for.
func (c *Cache) contents() (tags, order []uint64) {
	tags, order = slices.Clone(c.tags), slices.Clone(c.order)
	for set, g := range c.gen {
		if g != c.epoch {
			for i := set * c.ways; i < (set+1)*c.ways; i++ {
				tags[i], order[i] = invalidTag, 0
			}
		}
	}
	return tags, order
}

// sameState reports whether two caches hold the same tags, LRU stamps, clock
// and counters.
func sameState(a, b *Cache) bool {
	aTags, aOrder := a.contents()
	bTags, bOrder := b.contents()
	return slices.Equal(aTags, bTags) && slices.Equal(aOrder, bOrder) &&
		a.clock == b.clock && a.hits == b.hits && a.misses == b.misses
}

// TestCacheAccessMatchesReference drives twin caches with the same address
// stream, one through AccessLine and one through the single-pass walk it
// replaced: same answer, same victim and same stamps after every access.
func TestCacheAccessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range []struct{ size, line, ways int }{
		{1024, 64, 1}, {2048, 64, 2}, {4 << 10, 128, 4}, {16 << 10, 64, 16}, {64, 64, 4}, {96, 1, 3},
	} {
		got, want := NewCache(g.size, g.line, g.ways), NewCache(g.size, g.line, g.ways)
		span := uint64(4 * g.size)
		for i := 0; i < 20000; i++ {
			addr := uint64(rng.Int63n(int64(span)))
			if i%7 == 0 {
				addr = ^uint64(0) - addr // the top of the address space
			}
			if h, r := got.AccessLine(addr), want.accessLineRef(addr); h != r || !sameState(got, want) {
				t.Fatalf("%+v access %d (addr %#x): hit %v, reference %v, state equal %v",
					g, i, addr, h, r, sameState(got, want))
			}
		}
	}
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := NewCache(1024, 64, 2)
	if c.AccessLine(0) {
		t.Fatal("first access must be a cold miss")
	}
	if !c.AccessLine(0) {
		t.Fatal("second access to same line must hit")
	}
	if !c.AccessLine(63) {
		t.Fatal("access within same line must hit")
	}
	if c.AccessLine(64) {
		t.Fatal("next line must miss")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Fatalf("counters = %d/%d, want 2/2", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, line 64, 2 sets => set 0 holds lines {0, 2, 4, ...}.
	c := NewCache(256, 64, 2)
	if c.numSets != 2 {
		t.Fatalf("sets = %d, want 2", c.numSets)
	}
	c.AccessLine(0 * 64) // set 0, miss
	c.AccessLine(2 * 64) // set 0, miss
	c.AccessLine(0 * 64) // hit, makes line 2 LRU
	c.AccessLine(4 * 64) // evicts line 2
	if !c.AccessLine(0 * 64) {
		t.Fatal("line 0 should have survived (was MRU)")
	}
	if c.AccessLine(2 * 64) {
		t.Fatal("line 2 should have been evicted (was LRU)")
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	// A working set smaller than capacity must achieve a perfect hit rate
	// after the first (cold) pass, regardless of access order.
	c := NewCache(64<<10, 128, 4)
	lines := 256 // 32 KB working set in a 64 KB cache
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < lines; i++ {
			c.AccessLine(uint64(i * 128))
		}
	}
	wantMisses := uint64(lines)
	if c.Misses() != wantMisses {
		t.Fatalf("misses = %d, want %d (cold only)", c.Misses(), wantMisses)
	}
}

func TestCacheStreamingThrashes(t *testing.T) {
	// A stream 16x the cache size must miss on (almost) every line.
	c := NewCache(4<<10, 64, 4)
	n := 16 * 4 << 10 / 64
	for i := 0; i < n; i++ {
		c.AccessLine(uint64(i * 64))
	}
	if c.Hits() != 0 {
		t.Fatalf("streaming pass produced %d hits, want 0", c.Hits())
	}
}

func TestCacheResetCountersKeepsContents(t *testing.T) {
	c := NewCache(1024, 64, 2)
	c.AccessLine(0)
	c.ResetCounters()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("counters not reset")
	}
	if !c.AccessLine(0) {
		t.Fatal("contents should survive ResetCounters")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(1024, 64, 2)
	c.AccessLine(0)
	c.Invalidate()
	if c.AccessLine(0) {
		t.Fatal("Invalidate must empty the cache")
	}
}

// TestCacheInvalidateMatchesReference interleaves accesses and invalidations
// on twin caches, one invalidated by the epoch bump and one by the full
// clear it replaced: same hits, same victims, same state throughout — a set
// last used several invalidations ago included.
func TestCacheInvalidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	got, want := NewCache(4<<10, 64, 4), NewCache(4<<10, 64, 4)
	for i := 0; i < 20000; i++ {
		if rng.Intn(40) == 0 {
			got.Invalidate()
			want.invalidateRef()
		}
		// Mostly a few hot sets, so the others sit stale across epochs.
		addr := uint64(rng.Intn(6)) * 64
		if rng.Intn(10) == 0 {
			addr = uint64(rng.Intn(16 << 10))
		}
		if h, r := got.AccessLine(addr), want.accessLineRef(addr); h != r || !sameState(got, want) {
			t.Fatalf("access %d (addr %#x): hit %v, reference %v, state equal %v", i, addr, h, r, sameState(got, want))
		}
	}
}

func TestCacheHitRateBounds(t *testing.T) {
	// Property: hit rate is always within [0,1] and hits+misses equals the
	// number of accesses.
	f := func(addrs []uint16) bool {
		c := NewCache(2048, 64, 2)
		for _, a := range addrs {
			c.AccessLine(uint64(a))
		}
		total := c.Hits() + c.Misses()
		if total != uint64(len(addrs)) {
			return false
		}
		hr := c.HitRate()
		return hr >= 0 && hr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheDeterminism(t *testing.T) {
	// Property: the same access stream always produces the same counters.
	rng := rand.New(rand.NewSource(7))
	stream := make([]uint64, 5000)
	for i := range stream {
		stream[i] = uint64(rng.Intn(1 << 16))
	}
	run := func() (uint64, uint64) {
		c := NewCache(8<<10, 64, 4)
		for _, a := range stream {
			c.AccessLine(a)
		}
		return c.Hits(), c.Misses()
	}
	h1, m1 := run()
	h2, m2 := run()
	if h1 != h2 || m1 != m2 {
		t.Fatalf("nondeterministic cache: (%d,%d) vs (%d,%d)", h1, m1, h2, m2)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := NewCache(128<<10, 128, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AccessLine(uint64(i*64) % (1 << 22))
	}
}
