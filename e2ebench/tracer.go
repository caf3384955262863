package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one call the harness made into a layer. ChildNs is the part of
// the interval covered by child spans and by the timing wrapper's stamped
// backend calls, so SelfNs = DurNs - ChildNs is the layer's own time.
type span struct {
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Parent  int    `json:"parent"` // index of the causing span, -1 at the root
	ChildNs int64  `json:"child_ns"`
}

// tracer keeps spans in a preallocated slice and writes them out when the
// benchmark ends. Only the harness goroutine touches it.
type tracer struct {
	t0    time.Time
	spans []span
	open  int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 4096), open: -1}
}

// begin opens a span under the currently open one and returns its index. A
// nil tracer records nothing, so untraced passes share the traced code path.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Layer: layer, Name: name, StartNs: int64(time.Since(t.t0)), Parent: t.open})
	t.open = len(t.spans) - 1
	return t.open
}

// end closes span id (the innermost open one) and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.DurNs = int64(time.Since(t.t0)) - s.StartNs
	t.open = s.Parent
	if s.Parent >= 0 {
		t.spans[s.Parent].ChildNs += s.DurNs
	}
	return time.Duration(s.DurNs)
}

// child credits ns of stamped callee time to the open span.
func (t *tracer) child(ns int64) {
	if t.open >= 0 {
		t.spans[t.open].ChildNs += ns
	}
}

func (t *tracer) dump(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
