package obs

import "testing"

// testTrack builds an unregistered track directly, so span tests do not
// depend on (or mutate) the global enable flag.
func testTrack(limit int) *Track {
	if limit <= 0 {
		limit = defaultTrackLimit
	}
	return &Track{ID: 1, Name: "test", limit: limit}
}

func TestSpanNesting(t *testing.T) {
	tr := testTrack(0)
	outer := tr.Begin("epoch", CatPhase)
	inner := tr.Begin("forward", CatPhase)
	tr.Record("matmul", "GEMM", Nanos(), 5)
	inner.End()
	outer.End()

	s := tr.snapshot()
	if len(s.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(s.Spans))
	}
	if s.Spans[0].Parent != -1 {
		t.Fatalf("root parent = %d, want -1", s.Spans[0].Parent)
	}
	if s.Spans[1].Parent != 0 {
		t.Fatalf("inner parent = %d, want 0", s.Spans[1].Parent)
	}
	if s.Spans[2].Parent != 1 {
		t.Fatalf("recorded span parent = %d, want 1 (innermost open)", s.Spans[2].Parent)
	}
	for i, sp := range s.Spans {
		if sp.Dur < 0 {
			t.Fatalf("span %d still open after End: %+v", i, sp)
		}
	}
}

func TestSpanEndClosesInnerSpans(t *testing.T) {
	tr := testTrack(0)
	outer := tr.Begin("outer", "t")
	tr.Begin("inner", "t") // never explicitly ended
	outer.End()
	if tr.Begin("next", "t"); tr.snapshot().Spans[2].Parent != -1 {
		t.Fatal("stack not unwound: new span parented under a closed one")
	}
}

func TestTrackLimitCountsDropped(t *testing.T) {
	tr := testTrack(2)
	tr.Record("a", "t", 0, 1)
	sc := tr.Begin("b", "t")
	sc.End()
	tr.Record("c", "t", 0, 1) // over the cap
	sc2 := tr.Begin("d", "t") // over the cap
	sc2.End()                 // End of a dropped Begin must no-op
	if n := len(tr.snapshot().Spans); n != 2 {
		t.Fatalf("spans = %d, want 2", n)
	}
	if got := tr.snapshot().Dropped; got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
}

func TestNilTrackNoOps(t *testing.T) {
	var tr *Track
	sc := tr.Begin("x", "t")
	sc.End()
	tr.Record("y", "t", 0, 1)
	var off *Run
	if off.Track("z") != nil || off.Tracks() != nil {
		t.Fatal("a nil run handed out a track or reported spans")
	}
}

func TestSnapshotClosesOpenSpans(t *testing.T) {
	tr := testTrack(0)
	tr.Begin("open", "t")
	s := tr.snapshot()
	if s.Spans[0].Dur < 0 {
		t.Fatalf("open span not extended to now: %+v", s.Spans[0])
	}
	// The live track still has it open; End later must still work.
}
