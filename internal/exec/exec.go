// Package exec is the execution core shared by the multi-device training
// strategies: it owns the goroutine-per-simulated-GPU lifecycle, the
// lockstep barrier with leader election and abort propagation, and per-peer
// simulated-clock delta accounting. The bucketed ring-allreduce DDP plane
// (internal/ddp) and the graph-partitioned plane (internal/partitioned) are
// both strategies layered on this core — the strategy decides what happens
// at each synchronization point, the core decides how the workers get there
// and back race-free.
//
// The concurrency contract is the one the DDP engine established: one
// mutex orders every cross-worker access. Workers record their per-rank
// state under Do, enter Barrier, and the last arriver runs the leader
// closure while everyone else is blocked — so the leader may freely read
// and write any worker's buffers, and fails the run by returning an error.
// Repeated runs stay byte-identical as long as leader closures compute
// results as a pure function of the gathered inputs in a fixed (rank or
// bucket) order, never of which goroutine happened to arrive last.
package exec

import (
	"errors"
	"fmt"
	"sync"
)

// Group is the lockstep state of one multi-worker run: a cyclic barrier
// with leader election, first-error latching, and abort propagation.
type Group struct {
	world int

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     int
	err     error

	wg sync.WaitGroup
}

// NewGroup returns a group of `world` workers (world >= 1).
func NewGroup(world int) *Group {
	if world < 1 {
		panic(fmt.Sprintf("exec: invalid world size %d", world))
	}
	g := &Group{world: world}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Do runs f under the group mutex. Workers use it to publish per-rank
// state (timings, gradient buffers) that a later Barrier leader will read.
func (g *Group) Do(f func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f()
}

// Barrier blocks until all workers arrive; the last arriver runs leader()
// (when non-nil) under the lock before releasing the others, and an error
// the leader returns is latched as the run's failure then and there — every
// worker, the leader included, gets it back from this very call. Returns the
// first recorded error — and once a worker has failed, leaders stop running
// and every waiter is released immediately.
func (g *Group) Barrier(leader func() error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return g.err
	}
	g.arrived++
	if g.arrived == g.world {
		if leader != nil {
			g.err = leader()
		}
		g.arrived = 0
		g.gen++
		g.cond.Broadcast()
		return g.err
	}
	gen := g.gen
	for g.gen == gen && g.err == nil {
		g.cond.Wait()
	}
	return g.err
}

// Err returns the latched run error, if any.
func (g *Group) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// RankError wraps an error with the rank it originated on, so strategies
// above the latch (elastic DDP, the chaos harness) can attribute a failure
// to a specific worker. Unwrap exposes the cause to errors.As — e.g. the
// *fault.FatalError a worker's epoch loop returned stays reachable.
type RankError struct {
	Rank int
	Err  error
}

// Error implements error.
func (e *RankError) Error() string {
	return fmt.Sprintf("exec: worker %d failed: %v", e.Rank, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *RankError) Unwrap() error { return e.Err }

// abortPanic unwinds a worker goroutine after the run has failed; Go's
// recover treats it as a clean exit (the error is already latched).
type abortPanic struct{ err error }

// Abort unwinds the calling worker goroutine with a panic that Go
// recognizes as a controlled abort. Call it from code (e.g. a gradient
// hook deep inside a workload's training step) that cannot return an
// error up to the worker body.
func Abort(err error) {
	panic(abortPanic{err})
}

// fail latches worker `rank`'s failure, wrapped in a *RankError, and wakes
// every barrier waiter. Replicas of one model can hit the same simulated OOM
// at the same kernel of the same lockstep interval, and which goroutine
// reports first is scheduling — so among workers' own failures the lowest
// rank's is the one kept, and the run's error is a pure function of the run.
// An error that already names a rank is a peer's latched failure handed back
// through a barrier, not this worker's own, and is dropped.
func (g *Group) fail(rank int, err error) {
	var named *RankError
	if errors.As(err, &named) {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if cur, ok := g.err.(*RankError); g.err == nil || ok && rank < cur.Rank {
		g.err = &RankError{Rank: rank, Err: err}
	}
	g.cond.Broadcast()
}

// Go spawns one worker goroutine. An error body returns — a simulated
// device failure arrives this way, never as a panic: the worker trains
// through models.Env.Train (gpu.Guard inside) — is latched by fail. A
// controlled Abort unwinds silently. Any other panic is a bug; it is latched
// too, formatted and rank-attributed, so the remaining workers' barriers
// release instead of deadlocking behind the crashed one.
func (g *Group) Go(rank int, body func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abortPanic); !ok {
					g.fail(rank, fmt.Errorf("panic: %v", r))
				}
			}
		}()
		if err := body(); err != nil {
			g.fail(rank, err)
		}
	}()
}

// Wait blocks until every spawned worker has exited and returns the
// run's latched error, if any.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.Err()
}

// Gather is the group's basic collective: every rank publishes one value
// and receives a snapshot of all ranks' values in rank order. The double
// barrier makes slot reuse safe — the second barrier guarantees every
// rank has copied the round's snapshot before any rank can start the
// next round's publication.
type Gather struct {
	g     *Group
	slots []any
}

// NewGather returns a reusable collective bound to g.
func NewGather(g *Group) *Gather {
	return &Gather{g: g, slots: make([]any, g.world)}
}

// Run publishes val for rank and returns every rank's value, in rank
// order. Published values must not be mutated after publication (publish
// snapshots, not live buffers). Returns the run error once the group has
// failed.
func (x *Gather) Run(rank int, val any) ([]any, error) {
	x.slots[rank] = val // distinct index per rank; ordering via the barrier
	if err := x.g.Barrier(nil); err != nil {
		return nil, err
	}
	out := make([]any, len(x.slots))
	copy(out, x.slots)
	if err := x.g.Barrier(nil); err != nil {
		return nil, err
	}
	return out, nil
}

// Peer tracks one worker's simulated-time cursors so strategies can
// attribute clock and transfer deltas per synchronization interval.
type Peer struct {
	Rank int
	// ClockFn is the worker's simulated-clock source (e.g. Env.SimClock);
	// TransferFn its cumulative transfer-seconds source. Either may be nil.
	ClockFn    func() float64
	TransferFn func() float64

	lastClock    float64
	lastTransfer float64
}

// Clock returns the current simulated clock (0 without a source).
func (p *Peer) Clock() float64 {
	if p.ClockFn == nil {
		return 0
	}
	return p.ClockFn()
}

// ClockDelta returns the simulated time elapsed since the previous
// ClockDelta (or since construction) and advances the cursor.
func (p *Peer) ClockDelta() float64 {
	now := p.Clock()
	d := now - p.lastClock
	p.lastClock = now
	return d
}

// LastClock returns the clock recorded by the previous ClockDelta.
func (p *Peer) LastClock() float64 { return p.lastClock }

// TransferDelta returns the transfer-seconds accumulated since the
// previous TransferDelta and advances the cursor (0 without a source).
func (p *Peer) TransferDelta() float64 {
	if p.TransferFn == nil {
		return 0
	}
	now := p.TransferFn()
	d := now - p.lastTransfer
	p.lastTransfer = now
	return d
}
