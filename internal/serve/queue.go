package serve

import "fmt"

// OverloadError is the typed admission rejection: the endpoint's queue was
// at capacity when the request arrived. Callers (and the closed-loop load
// generator) distinguish it from hard failures — an overloaded endpoint is
// healthy, just saturated.
type OverloadError struct {
	Depth int // queued requests at rejection time
	Cap   int // configured queue capacity
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: queue overloaded (%d/%d)", e.Depth, e.Cap)
}

// AdmissionQueue is the bounded FIFO between arrival and batch formation.
// Cap <= 0 means unbounded. The queue is single-owner (the server event
// loop); it tracks its own high-watermark for the queue-depth metric.
type AdmissionQueue struct {
	cap      int
	reqs     []Request
	maxDepth int
}

// NewAdmissionQueue returns a queue admitting at most capacity waiting
// requests (<= 0 for unbounded).
func NewAdmissionQueue(capacity int) *AdmissionQueue {
	return &AdmissionQueue{cap: capacity}
}

// Push admits r, or returns *OverloadError when the queue is full.
func (q *AdmissionQueue) Push(r Request) error {
	if q.cap > 0 && len(q.reqs) >= q.cap {
		return &OverloadError{Depth: len(q.reqs), Cap: q.cap}
	}
	q.reqs = append(q.reqs, r)
	if len(q.reqs) > q.maxDepth {
		q.maxDepth = len(q.reqs)
	}
	return nil
}

// Len returns the number of waiting requests.
func (q *AdmissionQueue) Len() int { return len(q.reqs) }

// Peek returns the i-th oldest waiting request (0 = head).
func (q *AdmissionQueue) Peek(i int) Request { return q.reqs[i] }

// Take removes and returns the n oldest waiting requests.
func (q *AdmissionQueue) Take(n int) []Request {
	out := append([]Request(nil), q.reqs[:n]...)
	rest := copy(q.reqs, q.reqs[n:])
	q.reqs = q.reqs[:rest]
	return out
}

// MaxDepth returns the high-watermark of waiting requests.
func (q *AdmissionQueue) MaxDepth() int { return q.maxDepth }
