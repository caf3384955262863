// Package stream layers a simulated multi-queue execution model over a
// gpu.Device. The device itself keeps one serialized clock — every Launch
// and CopyH2D advances it as if the work ran back to back, which is the
// synchronous-baseline view all existing profiles and golden digests are
// built on. A Timeline adds what real CUDA exposes on top of that
// hardware: independently clocked streams (a compute queue, a dedicated
// copy-engine queue) whose work items overlap in simulated time unless an
// Event/Wait dependency orders them.
//
// Each work item is still submitted to the device (so kernel stats, cache
// state, and transfer listeners are byte-identical with or without
// streams); the stream only decides *when* the item runs on its own
// timeline: start = max(stream cursor, fence), cursor = start + duration.
// Timeline.Now is the makespan across streams — the pipelined epoch time —
// and Sync models cudaDeviceSynchronize by advancing every stream to it.
// One training run therefore yields both the synchronous epoch time
// (Device.ElapsedSeconds) and the overlapped one (Timeline.Now).
package stream

import "gnnmark/internal/gpu"

// defaultSliceLimit caps recorded slices per stream so long runs cannot
// exhaust memory; past the cap work still advances the clocks and busy
// accounting but is not recorded for the trace.
const defaultSliceLimit = 50_000

// Timeline owns the per-stream clocks layered over one device.
type Timeline struct {
	dev        *gpu.Device
	streams    []*Stream
	sliceLimit int
}

// New builds a timeline over dev (which must be non-nil).
func New(dev *gpu.Device) *Timeline {
	if dev == nil {
		panic("stream: timeline requires a device")
	}
	return &Timeline{dev: dev, sliceLimit: defaultSliceLimit}
}

// NewStream adds a named stream starting at t = 0.
func (tl *Timeline) NewStream(name string) *Stream {
	s := &Stream{tl: tl, id: len(tl.streams), name: name}
	tl.streams = append(tl.streams, s)
	return s
}

// Now returns the makespan: the furthest cursor across streams. This is
// the overlapped wall-clock of everything enqueued so far.
func (tl *Timeline) Now() float64 {
	var t float64
	for _, s := range tl.streams {
		if s.cursor > t {
			t = s.cursor
		}
	}
	return t
}

// Sync models a device-wide synchronize: every stream's cursor advances to
// the makespan (in-flight copy time that was not hidden becomes exposed),
// and the makespan is returned.
func (tl *Timeline) Sync() float64 {
	now := tl.Now()
	for _, s := range tl.streams {
		s.cursor = now
	}
	return now
}

// Slice is one recorded work item on a stream, in simulated seconds.
type Slice struct {
	Name       string
	Cat        string // "kernel" or "copy"
	Start, Dur float64
	Bytes      uint64 // wire bytes for copies, 0 for kernels
}

// Lane is the export view of one stream: its accounting plus the recorded
// slices, consumed by the Chrome-trace writer.
type Lane struct {
	Name       string
	Busy, Idle float64
	Slices     []Slice
	Dropped    int
}

// Lanes snapshots every stream for trace export. Idle is measured against
// the current makespan.
func (tl *Timeline) Lanes() []Lane {
	now := tl.Now()
	lanes := make([]Lane, 0, len(tl.streams))
	for _, s := range tl.streams {
		idle := now - s.busy
		if idle < 0 {
			idle = 0
		}
		lanes = append(lanes, Lane{
			Name:    s.name,
			Busy:    s.busy,
			Idle:    idle,
			Slices:  s.slices,
			Dropped: s.dropped,
		})
	}
	return lanes
}

// Stream is one in-order queue: items it enqueues run back to back on its
// clock, starting no earlier than any fence installed by Wait/WaitUntil.
type Stream struct {
	tl     *Timeline
	id     int
	name   string
	cursor float64 // when the last enqueued item finishes
	fence  float64 // earliest start for the next item (cross-stream deps)
	busy   float64 // total item duration enqueued so far

	slices  []Slice
	dropped int
}

// Name returns the stream's display name.
func (s *Stream) Name() string { return s.name }

// Cursor returns the finish time of the last enqueued item.
func (s *Stream) Cursor() float64 { return s.cursor }

// Busy returns the total duration of items enqueued so far.
func (s *Stream) Busy() float64 { return s.busy }

// Event is a recorded point on a stream's timeline, used to order another
// stream after it (cudaEventRecord / cudaStreamWaitEvent).
type Event struct{ at float64 }

// At returns the simulated time the event fires.
func (ev Event) At() float64 { return ev.at }

// Record captures the stream's current completion point.
func (s *Stream) Record() Event { return Event{at: s.cursor} }

// Wait fences the stream's next item to start no earlier than ev.
func (s *Stream) Wait(ev Event) { s.WaitUntil(ev.at) }

// WaitUntil fences the stream's next item to start no earlier than t.
// Fences only ever move forward.
func (s *Stream) WaitUntil(t float64) {
	if t > s.fence {
		s.fence = t
	}
}

// enqueue places one item of the given duration on the stream and returns
// its start time.
func (s *Stream) enqueue(name, cat string, dur float64, bytes uint64) float64 {
	start := s.cursor
	if s.fence > start {
		start = s.fence
	}
	s.cursor = start + dur
	s.busy += dur
	if len(s.slices) < s.tl.sliceLimit {
		s.slices = append(s.slices, Slice{Name: name, Cat: cat, Start: start, Dur: dur, Bytes: bytes})
	} else {
		s.dropped++
	}
	return start
}

// Push enqueues a pre-timed item on the stream without touching the
// device: start = max(cursor, fence), cursor advances by dur. It exists
// for planes that derive durations from their own model — the partitioned
// engine pushes whole compute spans (serialized-clock deltas) and modeled
// NVLink halo copies — while reusing the stream's fencing, busy accounting,
// and trace-lane export. Returns the item's start time.
func (s *Stream) Push(name, cat string, dur float64, bytes uint64) float64 {
	return s.enqueue(name, cat, dur, bytes)
}

// Launch submits k to the device (advancing the serialized baseline clock
// and all kernel accounting exactly as a direct Launch would) and enqueues
// its duration on this stream's timeline.
func (s *Stream) Launch(k *gpu.Kernel) gpu.KernelStats {
	st := s.tl.dev.Launch(k)
	s.enqueue(k.Name, "kernel", st.Seconds+st.Launch, 0)
	return st
}

// CopyH2D submits a host-to-device copy: the device records the RAW
// payload (keeping the sparsity characterization and the serialized
// baseline untouched), while this stream's slice lasts as long as the
// WIRE bytes take — smaller than raw when the sparsity codec compressed
// the transfer.
func (s *Stream) CopyH2D(name string, rawBytes, wireBytes uint64, zeroFraction float64) gpu.TransferStats {
	ts := s.tl.dev.CopyH2D(name, rawBytes, zeroFraction)
	s.enqueue(name, "copy", s.tl.dev.TransferCost(wireBytes), wireBytes)
	return ts
}
