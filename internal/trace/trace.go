// Package trace records the simulated kernel timeline and exports it in the
// Chrome trace-event format (chrome://tracing, Perfetto), giving the
// reproduction the visual timeline view nvprof/Nsight provide for real
// runs: one row per operation class, one slice per kernel, with the
// exposed launch gaps visible between slices. Host-side spans from
// internal/obs merge in as a second process (host.go), so compute, copy,
// and host time line up in one view.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"gnnmark/internal/gpu"
)

// DevicePID is the trace-event process id of the simulated device rows.
const DevicePID = 1

// Event is one Chrome trace-event: "X" complete events on the timeline,
// "M" metadata events naming processes and threads.
type Event struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`            // microseconds
	Dur  float64           `json:"dur,omitempty"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// maxEvents caps a recorder's events so long runs cannot exhaust memory.
const maxEvents = 100_000

// Recorder subscribes to a device and accumulates the kernel timeline.
type Recorder struct {
	events  []Event
	clock   float64 // device-time cursor in seconds
	limit   int
	dropped int
}

// Attach subscribes a new recorder to dev. It records at most maxEvents
// events; past the cap, kernels are counted into the clock (and into
// Dropped) but not recorded.
func Attach(dev *gpu.Device) *Recorder {
	r := &Recorder{limit: maxEvents}
	dev.Subscribe(r.onKernel)
	dev.SubscribeTransfers(r.onTransfer)
	return r
}

func (r *Recorder) onKernel(ks gpu.KernelStats) {
	start := r.clock + ks.Launch // exposed launch gap precedes the kernel
	if len(r.events) < r.limit {
		r.events = append(r.events, Event{
			Name: ks.Name,
			Cat:  ks.Class.String(),
			Ph:   "X",
			TS:   start * 1e6,
			Dur:  ks.Seconds * 1e6,
			PID:  DevicePID,
			TID:  int(ks.Class) + 1,
			Args: map[string]string{
				"flops":     fmt.Sprintf("%d", ks.Flops),
				"l1_hit":    fmt.Sprintf("%.3f", ks.L1HitRate()),
				"divergent": fmt.Sprintf("%.3f", ks.DivergenceRate()),
			},
		})
	} else {
		r.dropped++
	}
	r.clock = start + ks.Seconds
}

func (r *Recorder) onTransfer(ts gpu.TransferStats) {
	if len(r.events) < r.limit {
		r.events = append(r.events, Event{
			Name: ts.Name,
			Cat:  "Transfer",
			Ph:   "X",
			TS:   r.clock * 1e6,
			Dur:  ts.Seconds * 1e6,
			PID:  DevicePID,
			TID:  0,
			Args: map[string]string{
				"bytes":    fmt.Sprintf("%d", ts.Bytes),
				"sparsity": fmt.Sprintf("%.3f", ts.ZeroFraction),
			},
		})
	} else {
		r.dropped++
	}
	r.clock += ts.Seconds
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Dropped returns how many device events arrived after the recorder hit
// its limit and were counted into the clock but not recorded.
func (r *Recorder) Dropped() int { return r.dropped }

// Events returns the recorded timeline events (shared slice; do not mutate).
func (r *Recorder) Events() []Event { return r.events }

// metaEvent builds a Chrome "M" metadata event.
func metaEvent(name string, pid, tid int, args map[string]string) Event {
	return Event{Name: name, Ph: "M", PID: pid, TID: tid, Args: args}
}

// TimelineEvents returns the device timeline with naming metadata
// prepended: the device process name, one named row per operation class
// (plus the Transfer row at tid 0), and — when events were dropped at the
// limit — a device_events_dropped metadata event carrying the count.
func (r *Recorder) TimelineEvents() []Event {
	meta := []Event{
		metaEvent("process_name", DevicePID, 0, map[string]string{"name": "simulated device"}),
		metaEvent("thread_name", DevicePID, 0, map[string]string{"name": "Transfer"}),
	}
	for _, c := range gpu.AllOpClasses() {
		meta = append(meta, metaEvent("thread_name", DevicePID, int(c)+1,
			map[string]string{"name": c.String()}))
	}
	if r.dropped > 0 {
		meta = append(meta, metaEvent("device_events_dropped", DevicePID, 0,
			map[string]string{"count": fmt.Sprintf("%d", r.dropped)}))
	}
	return append(meta, r.events...)
}

// WriteEvents writes any event slice as a Chrome trace-event document.
func WriteEvents(w io.Writer, events []Event) error {
	doc := struct {
		TraceEvents []Event `json:"traceEvents"`
	}{TraceEvents: events}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("trace: encoding timeline: %w", err)
	}
	return nil
}
