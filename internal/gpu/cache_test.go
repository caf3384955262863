package gpu

import (
	"cmp"
	"fmt"
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

// refCache is the tag-and-stamp LRU store Cache used before its sets became
// recency lists, kept as the oracle the lists are held to. Each way holds a
// tag and the clock at its last use; a hit restamps its way and a miss
// replaces the first way with the smallest stamp. Empty ways all hold stamp
// 0, so that is an empty way while the set has one and the least recently
// used line after. It invalidates by clearing every way on the spot, so it
// never holds a stale set.
type refCache struct {
	ways         int
	lineShift    uint
	setMask      uint64
	tags, order  []uint64
	clock        uint64
	hits, misses uint64
}

// newRefCache builds a reference cache of NewCache's geometry.
func newRefCache(sizeBytes, lineBytes, ways int) *refCache {
	g := NewCache(sizeBytes, lineBytes, ways)
	c := &refCache{
		ways:      ways,
		lineShift: g.lineShift,
		setMask:   g.setMask,
		tags:      make([]uint64, len(g.tags)),
		order:     make([]uint64, len(g.tags)),
	}
	c.invalidateRef()
	return c
}

// accessLineRef is AccessLine as it was before the hit scan and the victim
// search were separated: one pass over the set that tracks the LRU way while
// it looks for the tag.
func (c *refCache) accessLineRef(addr uint64) bool {
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
// stamp: every way of every set is cleared on the spot.
func (c *refCache) invalidateRef() {
	for i := range c.tags {
		c.tags[i] = invalidTag
		c.order[i] = 0
	}
	c.clock = 0
	c.resetCounters()
}

func (c *refCache) resetCounters() { c.hits, c.misses = 0, 0 }

// lists returns every set's ways most recently used first — by falling
// stamp, the empty ways (stamp 0) last — which is the form Cache stores.
func (c *refCache) lists() []uint64 {
	out := make([]uint64, 0, len(c.tags))
	ways := make([]int, c.ways)
	for base := 0; base < len(c.tags); base += c.ways {
		for w := range ways {
			ways[w] = base + w
		}
		slices.SortFunc(ways, func(a, b int) int { return cmp.Compare(c.order[b], c.order[a]) })
		for _, i := range ways {
			out = append(out, c.tags[i])
		}
	}
	return out
}

// list returns set's most-recent-first list, reading a set that has not been
// touched since the last Invalidate as the empty set it stands for.
func (c *Cache) list(set int) []uint64 {
	if c.gen[set] != c.epoch {
		empty := make([]uint64, c.ways)
		for w := range empty {
			empty[w] = invalidTag
		}
		return empty
	}
	return c.tags[set*c.ways : (set+1)*c.ways]
}

// lists returns every set's list, set after set.
func (c *Cache) lists() []uint64 {
	out := make([]uint64, 0, len(c.tags))
	for set := range c.gen {
		out = append(out, c.list(set)...)
	}
	return out
}

// sameState reports whether a cache and its reference hold the same
// most-recent-first list in every set and the same counters.
func sameState(a *Cache, b *refCache) bool {
	return slices.Equal(a.lists(), b.lists()) && a.hits == b.hits && a.misses == b.misses
}

// TestCacheAccessMatchesReference drives twin caches with the same address
// stream, one through AccessLine and one through the stamped single-pass
// walk: same answer, same victim and the same recency order after every
// access.
func TestCacheAccessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range []struct{ size, line, ways int }{
		{1024, 64, 1}, {2048, 64, 2}, {4 << 10, 128, 4}, {16 << 10, 64, 16}, {64, 64, 4}, {96, 1, 3},
	} {
		got, want := NewCache(g.size, g.line, g.ways), newRefCache(g.size, g.line, g.ways)
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

// FuzzCacheEquivalence holds Cache to refCache on a fuzzed geometry — 1 to
// 16 ways, line sizes 1 to 256 B, set counts that round down — and a fuzzed
// stream of accesses near zero and near the top of the address space with
// Invalidate and ResetCounters interleaved, comparing after every step: run
// the committed corpus with `go test`, mutate with
// `go test -run '^$' -fuzz '^FuzzCacheEquivalence$' -fuzztime 10s ./internal/gpu`.
func FuzzCacheEquivalence(f *testing.F) {
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		ways := 1 + next()%16
		line := 1 << (next() % 9)
		size := line * ways * (1 + next()%40)
		got, want := NewCache(size, line, ways), newRefCache(size, line, ways)
		for i := 0; len(data) > 0; i++ {
			op := next()
			switch op % 16 {
			case 0:
				got.Invalidate()
				want.invalidateRef()
			case 1:
				got.ResetCounters()
				want.resetCounters()
			default:
				addr := uint64(next())*uint64(line) + uint64(op>>4&3)
				if op&64 != 0 {
					addr = ^uint64(0) - addr
				}
				if h, r := got.AccessLine(addr), want.accessLineRef(addr); h != r {
					t.Fatalf("%d B, %d B lines, %d ways: step %d (addr %#x): hit %v, reference %v", size, line, ways, i, addr, h, r)
				}
			}
			if !sameState(got, want) {
				t.Fatalf("%d B, %d B lines, %d ways: step %d (op %#x): lists or counters differ", size, line, ways, i, op)
			}
		}
	})
}

// TestMoreWaysNeverFewerHits is LRU inclusion: at an equal set count, each
// set's list in a w-way cache is a prefix of the same set's list in the
// (w+1)-way cache, so an access that hits with w ways hits with w+1. It is
// checked after every access of strided streams and of gatherStreams'
// irregular ones, each read twice so there is reuse to find.
func TestMoreWaysNeverFewerHits(t *testing.T) {
	const sets, line, maxWays = 8, 64, 16
	rng := rand.New(rand.NewSource(3))
	var streams [][]uint64
	for _, stride := range []int{1, 3, 16, 33, 100} {
		s := make([]uint64, 4096)
		for i := range s {
			s[i] = 1<<20 + uint64(i*stride*4)
		}
		streams = append(streams, s)
	}
	for _, idx := range gatherStreams(rng, 4096) {
		s := make([]uint64, len(idx))
		for i, v := range idx {
			s[i] = 1<<20 + uint64(v)*4
		}
		streams = append(streams, s)
	}
	for n, stream := range streams {
		caches := make([]*Cache, maxWays+1) // caches[w] has w ways
		for w := 1; w <= maxWays; w++ {
			caches[w] = NewCache(sets*line*w, line, w)
		}
		for pass := 0; pass < 2; pass++ {
			for i, addr := range stream {
				set := int(addr / line % sets)
				hit := false
				for w := 1; w <= maxWays; w++ {
					h := caches[w].AccessLine(addr)
					if hit && !h {
						t.Fatalf("stream %d pass %d access %d: hits with %d ways, misses with %d", n, pass, i, w-1, w)
					}
					hit = h
					if w > 1 && !slices.Equal(caches[w-1].list(set), caches[w].list(set)[:w-1]) {
						t.Fatalf("stream %d pass %d access %d: set %d with %d ways %x is not a prefix of %d ways' %x",
							n, pass, i, set, w-1, caches[w-1].list(set), w, caches[w].list(set))
					}
				}
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
	got, want := NewCache(4<<10, 64, 4), newRefCache(4<<10, 64, 4)
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

// BenchmarkCacheAccess times one access at the L1 geometry (4 ways) and the
// V100 L2's (16 ways), each on three streams through one set: the same line
// (a hit at the front of the list), a cycle of exactly as many lines as ways
// (every access hits the last way) and a cycle of one more (every access
// misses).
func BenchmarkCacheAccess(b *testing.B) {
	v100 := V100()
	for _, g := range []struct {
		name             string
		size, line, ways int
	}{
		{"l1", 128 << 10, 128, 4},
		{"v100-l2", v100.L2SizeKB << 10, v100.L2LineBytes, v100.L2Ways},
	} {
		for _, s := range []struct {
			name  string
			lines int
		}{{"front-hit", 1}, {"deep-hit", g.ways}, {"miss", g.ways + 1}} {
			b.Run(fmt.Sprintf("%s/%s", g.name, s.name), func(b *testing.B) {
				c := NewCache(g.size, g.line, g.ways)
				addrs := make([]uint64, s.lines)
				for i := range addrs {
					addrs[i] = uint64(i*c.numSets*g.line) + 1<<20
				}
				for _, a := range addrs {
					c.AccessLine(a)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.AccessLine(addrs[i%len(addrs)])
				}
			})
		}
	}
}
