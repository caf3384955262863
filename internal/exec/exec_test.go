package exec

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestBarrierLeaderElection: exactly one leader per barrier generation, and
// every worker observes the leader's writes afterwards.
func TestBarrierLeaderElection(t *testing.T) {
	const world, rounds = 4, 50
	g := NewGroup(world)
	leaders := 0
	shared := 0
	for rank := 0; rank < world; rank++ {
		g.Go(rank, func() error {
			for r := 0; r < rounds; r++ {
				if err := g.Barrier(func() error { leaders++; shared = r + 1; return nil }); err != nil {
					return err
				}
				var seen int
				g.Do(func() { seen = shared })
				if seen != r+1 {
					return fmt.Errorf("round %d: shared = %d", r, seen)
				}
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if leaders != rounds {
		t.Fatalf("leader ran %d times, want %d", leaders, rounds)
	}
}

// TestFailReleasesWaiters: one failing worker releases everyone blocked at
// the barrier with the latched error; later barriers return it immediately.
func TestFailReleasesWaiters(t *testing.T) {
	const world = 4
	g := NewGroup(world)
	boom := errors.New("boom")
	var released atomic.Int32
	for rank := 0; rank < world; rank++ {
		g.Go(rank, func() error {
			if rank == 0 {
				return boom
			}
			if err := g.Barrier(nil); err != nil {
				released.Add(1)
				return nil // error already latched
			}
			return fmt.Errorf("rank %d: barrier passed with %d workers", rank, world-1)
		})
	}
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("latched error = %v, want boom", err)
	}
	if released.Load() != world-1 {
		t.Fatalf("%d waiters released, want %d", released.Load(), world-1)
	}
}

// TestAbortUnwinds: Abort from deep inside a worker exits the goroutine
// without overwriting the latched error.
func TestAbortUnwinds(t *testing.T) {
	g := NewGroup(2)
	boom := errors.New("first")
	g.Go(0, func() error { return boom })
	g.Go(1, func() error {
		for g.Err() == nil { // wait for the latch
		}
		Abort(g.Err())
		return errors.New("unreachable")
	})
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("latched error = %v, want first", err)
	}
}

// TestGatherRankOrder: every rank sees every payload in rank order, every
// round, with slot reuse across rounds.
func TestGatherRankOrder(t *testing.T) {
	const world, rounds = 3, 20
	g := NewGroup(world)
	x := NewGather(g)
	for rank := 0; rank < world; rank++ {
		g.Go(rank, func() error {
			for r := 0; r < rounds; r++ {
				vals, err := x.Run(rank, rank*1000+r)
				if err != nil {
					return err
				}
				for q, v := range vals {
					if v.(int) != q*1000+r {
						return fmt.Errorf("rank %d round %d slot %d: %v", rank, r, q, v)
					}
				}
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPeerDeltas: clock deltas partition elapsed simulated time.
func TestPeerDeltas(t *testing.T) {
	clock := 0.0
	p := Peer{Rank: 0, ClockFn: func() float64 { return clock }}
	p.ClockDelta() // baseline
	clock = 1.5
	if d := p.ClockDelta(); d != 1.5 {
		t.Fatalf("delta %v, want 1.5", d)
	}
	clock = 2.0
	if d := p.ClockDelta(); d != 0.5 {
		t.Fatalf("delta %v, want 0.5", d)
	}
	if p.LastClock() != 2.0 {
		t.Fatalf("cursor %v, want 2.0", p.LastClock())
	}
}

// TestRankErrorPromotion: the error a worker returns is latched as a
// *RankError that keeps the cause reachable through errors.As / errors.Is —
// the path a device health fatal travels from the worker's guarded epoch
// step to the group latch.
func TestRankErrorPromotion(t *testing.T) {
	cause := errors.New("xid 79: GPU has fallen off the bus")

	g := NewGroup(3)
	for rank := 0; rank < 3; rank++ {
		rank := rank
		g.Go(rank, func() error {
			if rank == 1 {
				return cause // device-style fatal: returned by the epoch step
			}
			for {
				if err := g.Barrier(nil); err != nil {
					return err
				}
			}
		})
	}
	err := g.Wait()
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("latched error %v is not a *RankError", err)
	}
	if re.Rank != 1 {
		t.Fatalf("failure attributed to rank %d, want 1", re.Rank)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("cause not reachable through Unwrap: %v", err)
	}

	// Returned errors are rank-wrapped too.
	g2 := NewGroup(1)
	g2.Go(0, func() error { return cause })
	if err := g2.Wait(); !errors.Is(err, cause) {
		t.Fatalf("returned error lost cause: %v", err)
	}

	// A crash still produces an attributed failure — formatted, never
	// promoted: even an error-valued panic is a bug, not a device failure.
	for _, val := range []any{"boom", cause} {
		g3 := NewGroup(1)
		g3.Go(0, func() error { panic(val) })
		var re3 *RankError
		if err := g3.Wait(); !errors.As(err, &re3) || re3.Rank != 0 || errors.Is(err, cause) {
			t.Fatalf("panic(%v) not a formatted, rank-wrapped crash: %v", val, err)
		}
	}
}

// TestLeaderErrorLatches: what a barrier leader returns is the run's
// failure — every worker gets it back from that same Barrier call, and
// later leaders never run.
func TestLeaderErrorLatches(t *testing.T) {
	const world = 3
	g := NewGroup(world)
	boom := errors.New("leader says no")
	var sawIt atomic.Int32
	for rank := 0; rank < world; rank++ {
		g.Go(rank, func() error {
			if err := g.Barrier(func() error { return boom }); err == boom {
				sawIt.Add(1)
			}
			if err := g.Barrier(func() error { panic("leader ran after the latch") }); err != boom {
				return fmt.Errorf("rank %d: second barrier returned %v", rank, err)
			}
			return nil
		})
	}
	if err := g.Wait(); err != boom {
		t.Fatalf("latched error = %v, want the leader's own error, unwrapped", err)
	}
	if sawIt.Load() != world {
		t.Fatalf("%d workers got the leader's error from the failing barrier, want %d", sawIt.Load(), world)
	}
}

// TestLowestRankFailureWins: when several workers fail on their own in the
// same interval, the reported rank does not depend on who got to the latch
// first — and a peer handing the latched failure back is not a new failure.
func TestLowestRankFailureWins(t *testing.T) {
	g := NewGroup(3)
	g.Go(2, func() error { return errors.New("oom on 2") })
	g.Go(1, func() error {
		for g.Err() == nil { // let rank 2 latch first
		}
		return errors.New("oom on 1")
	})
	g.Go(0, func() error {
		for {
			var re *RankError
			if errors.As(g.Err(), &re) && re.Rank == 1 {
				return g.Err() // handed back, must not become rank 0's failure
			}
		}
	})
	var re *RankError
	if err := g.Wait(); !errors.As(err, &re) || re.Rank != 1 || re.Err.Error() != "oom on 1" {
		t.Fatalf("latched %v, want rank 1's own failure", err)
	}
}
