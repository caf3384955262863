package serve

import "testing"

func TestEmbedCacheLRU(t *testing.T) {
	c := NewEmbedCache(2)
	c.Put(1, []float32{1})
	c.Put(2, []float32{2})
	if got := c.Get(1); got == nil || got[0] != 1 {
		t.Fatalf("Get(1) = %v", got)
	}
	// 1 is now most recent; inserting 3 evicts 2.
	c.Put(3, []float32{3})
	if c.Get(2) != nil {
		t.Fatal("2 not evicted as LRU")
	}
	if c.Get(1) == nil || c.Get(3) == nil {
		t.Fatal("recent entries evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.Hits() != 3 || c.Misses() != 1 {
		t.Fatalf("hits %d misses %d, want 3/1", c.Hits(), c.Misses())
	}
}

func TestEmbedCachePutCopies(t *testing.T) {
	c := NewEmbedCache(4)
	row := []float32{7}
	c.Put(1, row)
	row[0] = 99
	if got := c.Get(1); got[0] != 7 {
		t.Fatalf("cache aliased caller's slice: %v", got)
	}
	// Re-putting refreshes recency without replacing the stored row.
	c.Put(2, []float32{2})
	c.Put(1, []float32{8})
	if got := c.Get(1); got[0] != 7 {
		t.Fatalf("re-put replaced row: %v (purity contract makes them equal anyway)", got)
	}
}

func TestEmbedCacheDisabled(t *testing.T) {
	c := NewEmbedCache(0)
	if c != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
	// All nil-receiver operations are safe no-ops.
	c.Put(1, []float32{1})
	if c.Get(1) != nil || c.Len() != 0 || c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("nil cache not inert")
	}
}

func TestAdmissionQueueFIFO(t *testing.T) {
	q := NewAdmissionQueue(0) // unbounded
	for i := 0; i < 5; i++ {
		if err := q.Push(Request{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	got := q.Take(3)
	if len(got) != 3 || got[0].Seq != 0 || got[2].Seq != 2 {
		t.Fatalf("Take(3) = %+v", got)
	}
	if q.Len() != 2 || q.Peek(0).Seq != 3 {
		t.Fatalf("after Take: len %d head %+v", q.Len(), q.Peek(0))
	}
	if q.MaxDepth() != 5 {
		t.Fatalf("MaxDepth = %d, want 5", q.MaxDepth())
	}
}
