package gpu

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The device model runs beside the host that drives it. Submit copies a
// kernel into the device's launch queue and returns; a worker of one
// process-wide pool replays and times it while the host goes on to the next
// operation's numerics. The worker runs the code Launch runs, on the same
// kernels in the same order, so every simulated number is bit for bit what
// launching synchronously gives.
//
// The host sees device state only after Sync, which returns once every queued
// kernel has been modelled and has handed their stats to the listeners on the
// caller's goroutine, in launch order. Every method that reads or resets the
// clocks, copies, subscribes, attaches a health plane or launches
// synchronously calls it first. Listeners therefore never run beside the
// host, and whoever reads a listener's data reads it after one of those calls
// (the profiler and the trace recorder call Sync themselves).

// queueSlots bounds how far the host runs ahead of the device model: Submit
// syncs when the ring is full. A kernel costs the host tens of microseconds,
// so a short ring loses no overlap, and it bounds the index streams held for
// kernels not yet modelled.
const queueSlots = 64

// kickEvery is how many kernels the host queues between attempts to wake a
// worker: a wake-up costs the host microseconds, as much as modelling one of
// serving's tiny kernels. Sync models whatever no worker was woken for.
const kickEvery = 4

// slotAccesses is the access capacity each slot starts with; a kernel with
// more grows its slot's buffer once.
const slotAccesses = 4

// queued is one slot of a device's launch queue: the kernel copied by value
// (its access list into acc, which the slot keeps and reuses), the caller's
// callback, and the stats the model writes.
type queued struct {
	k     Kernel
	acc   []Access
	then  func(KernelStats)
	stats KernelStats
	fence bool // a Sync marker, answered on fenced
}

// launchQueue is a single-producer ring. The host fills the slot at tail and
// publishes it in pub. Whoever holds busy — a pool worker, or Sync itself —
// models published slots in order and advances done. Sync appends a fence,
// waits for its answer and delivers every slot from head to tail.
type launchQueue struct {
	slots      []queued
	head, tail uint64 // host only
	kicked     uint64 // host only: tail at the last attempt to wake a worker
	pub, done  atomic.Uint64
	busy       atomic.Bool
	fenced     chan struct{}
}

var (
	serversOnce sync.Once
	// waiting holds the devices a worker has been sent for. A device is in
	// it at most once (busy guards the send), so the buffer makes a host wait
	// only when more devices than that have work at once.
	waiting chan *Device
)

// startServers starts the pool that models queued kernels: one worker per
// GOMAXPROCS, living for the process lifetime like the numerics backend's
// pool. A worker serves one device until it catches up.
func startServers() {
	n := runtime.GOMAXPROCS(0)
	waiting = make(chan *Device, 64)
	for i := 0; i < n; i++ {
		go func() {
			for d := range waiting {
				d.serve()
			}
		}()
	}
}

// Submit queues k to be modelled after every kernel queued before it and
// returns without waiting. k is copied, so the caller may reuse it at once;
// its index streams (Access.Indices) are read later and must not be written
// until the device has been synced. then, when non-nil, receives k's stats
// on the syncing goroutine, after the listeners have.
//
// A parked OOM raises here, at the kernel that needed the memory, as it does
// in Launch. A device with a health plane attached launches synchronously
// instead: the plane is polled at the device clock before every kernel, and a
// fatal event must stop the host at that kernel.
func (d *Device) Submit(k *Kernel, then func(KernelStats)) {
	if d.health != nil {
		st := d.Launch(k)
		if then != nil {
			then(st)
		}
		return
	}
	d.raisePending(k.Name)
	q := &d.q
	if q.slots == nil {
		q.init()
	}
	if q.tail-q.head == queueSlots-1 { // the last free slot is the fence's
		d.Sync()
	}
	s := &q.slots[q.tail%queueSlots]
	s.acc = append(s.acc[:0], k.Accesses...)
	// Field by field: copying k whole would store the caller's access array
	// in the ring and move every kernel literal in internal/ops to the heap.
	s.k = Kernel{
		Name: k.Name, Class: k.Class, Threads: k.Threads, Mix: k.Mix,
		Flops: k.Flops, Iops: k.Iops, Accesses: s.acc, CodeBytes: k.CodeBytes,
		DepChain: k.DepChain, Efficiency: k.Efficiency, Barriers: k.Barriers,
	}
	s.k.defaults()
	s.then, s.fence = then, false
	q.tail++
	q.pub.Store(q.tail)
	if q.tail-q.kicked >= kickEvery {
		q.kicked = q.tail
		if q.busy.CompareAndSwap(false, true) {
			serversOnce.Do(startServers)
			waiting <- d
		}
	}
}

func (q *launchQueue) init() {
	q.slots = make([]queued, queueSlots)
	acc := make([]Access, queueSlots*slotAccesses)
	for i := range q.slots {
		q.slots[i].acc = acc[i*slotAccesses : i*slotAccesses : (i+1)*slotAccesses]
	}
	q.fenced = make(chan struct{}, 1)
}

// Sync returns once every kernel Submit queued has been modelled, after
// calling the listeners, and each kernel's then, with their stats in launch
// order on the caller's goroutine. When no worker holds the queue it models
// what is left itself rather than wake one and wait. It returns at once when
// nothing is queued.
func (d *Device) Sync() {
	q := &d.q
	if q.head == q.tail {
		return
	}
	q.slots[q.tail%queueSlots].fence = true
	q.tail++
	q.pub.Store(q.tail)
	if q.busy.CompareAndSwap(false, true) {
		d.serve()
	}
	<-q.fenced
	from, to := q.head, q.tail
	q.head = to
	for i := from; i < to; i++ {
		s := &q.slots[i%queueSlots]
		if s.fence {
			continue
		}
		for _, fn := range d.kernelListeners {
			fn(s.stats)
		}
		if s.then != nil {
			s.then(s.stats)
			s.then = nil
		}
	}
}

// serve models the device's published slots in order, answering each fence,
// until it has caught up; then it lets the queue go, unless a slot was
// published meanwhile and nobody else has taken the queue for it.
func (d *Device) serve() {
	q := &d.q
	for {
		for i := q.done.Load(); i < q.pub.Load(); i++ {
			s := &q.slots[i%queueSlots]
			if s.fence {
				q.done.Store(i + 1)
				q.fenced <- struct{}{}
				continue
			}
			s.stats = d.model(&s.k)
			clear(s.acc) // drop the index streams: the slot may sit a while
			q.done.Store(i + 1)
		}
		q.busy.Store(false)
		if q.done.Load() == q.pub.Load() || !q.busy.CompareAndSwap(false, true) {
			return
		}
	}
}
