package trace

import (
	"fmt"

	"gnnmark/internal/obs"
	"gnnmark/internal/stream"
)

// HostPID is the trace-event process id of the host-side span rows. The
// device timeline renders as pid 1 (DevicePID); host tracks from
// internal/obs render as a second process so Perfetto stacks them in one
// view, one row per track (the engine's phase/op spans, the DDP reducer).
const HostPID = 2

// HostEvents converts every track of the run into Chrome trace
// events under HostPID: a process_name row, a thread_name row per track,
// one "X" slice per span (nesting drawn from span containment), and a
// host_spans_dropped metadata event per track that hit its span cap.
//
// Host spans are stamped in real wall-clock nanoseconds since process
// start, while device events live on the simulated device clock; both
// start near zero, so the merged view lines the two planes up without
// pretending they share a clock.
func HostEvents(run *obs.Run) []Event {
	tracks := run.Tracks()
	if len(tracks) == 0 {
		return nil
	}
	events := []Event{
		metaEvent("process_name", HostPID, 0, map[string]string{"name": "host"}),
	}
	for _, tr := range tracks {
		events = append(events, metaEvent("thread_name", HostPID, tr.ID,
			map[string]string{"name": tr.Name}))
		if tr.Dropped > 0 {
			events = append(events, metaEvent("host_spans_dropped", HostPID, tr.ID,
				map[string]string{"count": fmt.Sprintf("%d", tr.Dropped)}))
		}
		for _, sp := range tr.Spans {
			events = append(events, Event{
				Name: sp.Name,
				Cat:  sp.Cat,
				Ph:   "X",
				TS:   float64(sp.Start) / 1e3, // ns -> us
				Dur:  float64(sp.Dur) / 1e3,
				PID:  HostPID,
				TID:  tr.ID,
			})
		}
	}
	return events
}

// streamTIDBase offsets stream-lane thread ids past the per-op-class device
// rows (tid 0 = transfers, class+1 = kernels).
const streamTIDBase = 100

// RankLanes flattens per-rank stream lanes into one list with rank-prefixed
// names, so every simulated GPU's compute and halo streams appear as their
// own named threads in the Chrome trace.
func RankLanes(lanes [][]stream.Lane) []stream.Lane {
	var out []stream.Lane
	for r, ls := range lanes {
		for _, l := range ls {
			l.Name = fmt.Sprintf("gpu%d %s", r, l.Name)
			out = append(out, l)
		}
	}
	return out
}

// StreamLaneEvents converts the overlapped-timeline stream lanes into
// Chrome trace events under DevicePID: a named thread row per stream
// (compute, copy engine) at tids >= streamTIDBase, one "X" slice per
// enqueued item, and a stream_slices_dropped metadata event for lanes that
// hit the slice cap. Lane times are simulated seconds from the timeline
// origin, so the rows line up with the serialized device rows.
func StreamLaneEvents(lanes []stream.Lane) []Event {
	var events []Event
	for i, lane := range lanes {
		tid := streamTIDBase + i
		events = append(events, metaEvent("thread_name", DevicePID, tid,
			map[string]string{"name": "stream: " + lane.Name}))
		if lane.Dropped > 0 {
			events = append(events, metaEvent("stream_slices_dropped", DevicePID, tid,
				map[string]string{"count": fmt.Sprintf("%d", lane.Dropped)}))
		}
		for _, sl := range lane.Slices {
			ev := Event{
				Name: sl.Name,
				Cat:  sl.Cat,
				Ph:   "X",
				TS:   sl.Start * 1e6, // sec -> us
				Dur:  sl.Dur * 1e6,
				PID:  DevicePID,
				TID:  tid,
			}
			if sl.Bytes > 0 {
				ev.Args = map[string]string{"wire_bytes": fmt.Sprintf("%d", sl.Bytes)}
			}
			events = append(events, ev)
		}
	}
	return events
}
