package vmem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkTeardown checks the state an allocator must be in once every block
// handed out has been freed: nothing is live, each free block spans its
// whole segment (coalescing left no two free neighbours), so every reserved
// byte lies on a free list, and no block on a free list is dead.
func checkTeardown(a *Allocator) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stats.Live != 0 || len(a.live) != 0 {
		return fmt.Errorf("%d bytes in %d blocks still live", a.stats.Live, len(a.live))
	}
	var free int64
	for pool, list := range a.free {
		for _, b := range list {
			switch {
			case b.dead:
				return fmt.Errorf("block %#x on free list %d is dead", b.addr, pool)
			case !b.free:
				return fmt.Errorf("block %#x on free list %d is not free", b.addr, pool)
			case b.size != b.seg.size:
				return fmt.Errorf("free block %#x spans %d of its segment's %d bytes", b.addr, b.size, b.seg.size)
			}
			free += b.size
		}
	}
	if free != a.stats.Reserved {
		return fmt.Errorf("free lists hold %d of %d reserved bytes", free, a.stats.Reserved)
	}
	return nil
}

// freeLists renders both free lists as (addr, size) pairs in list order.
func freeLists(a *Allocator) [2][][2]int64 {
	var out [2][][2]int64
	for pool, list := range a.free {
		for _, b := range list {
			out[pool] = append(out[pool], [2]int64{int64(b.addr), b.size})
		}
	}
	return out
}

// owner models an ops.Engine on a shared allocator: it keeps every block it
// was handed in seq until its bulk release, which frees them in order and
// then drops them. Unlike an engine it may also free a block early, keep
// the pointer (its index in early) and free it again later: the stale
// pointers reclaim must survive.
type owner struct {
	seq   []*Block
	early []int
}

// TestReclaimMatchesNeverReclaiming drives generated alloc, free and
// release sequences of two owners through an allocator that reclaims and
// one that never does: every address, both free lists and the stats must
// agree after every step, and a teardown must leave the allocator torn down.
func TestReclaimMatchesNeverReclaiming(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, ref := New(48<<20, nil), New(48<<20, nil)
		var gotOwners, refOwners [2]owner
		release := func(a *Allocator, o *owner, reclaim bool) {
			for _, b := range o.seq {
				a.Free(b)
			}
			if reclaim {
				a.Reclaim(o.seq)
			}
			o.seq, o.early = o.seq[:0], o.early[:0]
		}
		for step := 0; step < 400; step++ {
			i := rng.Intn(2)
			g, r := &gotOwners[i], &refOwners[i]
			switch op := rng.Intn(10); {
			case op < 6:
				// Few sizes, so that freed blocks are handed out again.
				size := int64(1+rng.Intn(2)) << 9
				if rng.Intn(8) == 0 {
					size = int64(1+rng.Intn(12)) << 20
				}
				gb, gerr := got.Alloc(size, "t")
				rb, rerr := ref.Alloc(size, "t")
				if (gerr == nil) != (rerr == nil) {
					t.Fatalf("seed %d step %d: alloc errors differ: %v, %v", seed, step, gerr, rerr)
				}
				if gerr != nil {
					continue
				}
				if gb.Addr() != rb.Addr() {
					t.Fatalf("seed %d step %d: alloc at %#x, never reclaiming %#x", seed, step, gb.Addr(), rb.Addr())
				}
				g.seq, r.seq = append(g.seq, gb), append(r.seq, rb)
			case op < 9 && len(g.seq) > 0:
				k := rng.Intn(len(g.seq))
				if len(g.early) > 0 && rng.Intn(2) == 0 {
					k = g.early[rng.Intn(len(g.early))] // freed already, maybe dead
				}
				g.early = append(g.early, k)
				got.Free(g.seq[k])
				ref.Free(r.seq[k])
			default:
				release(got, g, true)
				release(ref, r, false)
			}
			if gs, rs := got.Stats(), ref.Stats(); gs != rs {
				t.Fatalf("seed %d step %d: stats %+v, never reclaiming %+v", seed, step, gs, rs)
			}
			if gl, rl := freeLists(got), freeLists(ref); !slices.Equal(gl[0], rl[0]) || !slices.Equal(gl[1], rl[1]) {
				t.Fatalf("seed %d step %d: free lists differ from never reclaiming", seed, step)
			}
		}
		for i := range gotOwners {
			release(got, &gotOwners[i], true)
			release(ref, &refOwners[i], false)
		}
		if err := checkTeardown(got); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(got.spare) == 0 {
			t.Fatalf("seed %d: nothing was reclaimed: the comparison tested nothing", seed)
		}
	}
}

// TestStaleFreeOfAMergedBlock: a block freed early and then merged away
// stays dead while its holder keeps the pointer, though the allocator hands
// its range out again twice: a Free through the stale pointer does nothing.
func TestStaleFreeOfAMergedBlock(t *testing.T) {
	a := New(1<<30, nil)
	var held []*Block
	alloc := func() *Block {
		b, err := a.Alloc(512, "t")
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, b)
		return b
	}
	x, y := alloc(), alloc()
	alloc()
	a.Free(y)      // freed early; the pointer is kept
	a.Free(x)      // y merges into x
	a.Reclaim(nil) // another owner's release: y is still held
	alloc()        // splits x's range, leaving y's as a new free block
	alloc()        // which this takes
	before := a.Stats()
	a.Free(y)
	if s := a.Stats(); s != before {
		t.Fatalf("a Free through a stale pointer moved the stats from %+v to %+v", before, s)
	}
	for _, b := range held {
		a.Free(b)
	}
	a.Reclaim(held)
	if err := checkTeardown(a); err != nil {
		t.Fatal(err)
	}
}
