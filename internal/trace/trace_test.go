package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"gnnmark/internal/gpu"
)

func testDev() (*gpu.Device, *Recorder) {
	cfg := gpu.V100()
	cfg.MaxSampledWarps = 512
	dev := gpu.New(cfg)
	return dev, Attach(dev)
}

// launch queues a kernel the way the op engine does: the recorder's readers
// must sync the device to see it.
func launch(dev *gpu.Device, class gpu.OpClass, n int) {
	dev.Submit(&gpu.Kernel{
		Name: "k-" + class.String(), Class: class, Threads: n,
		Mix:      gpu.InstrMix{Fp32: uint64(n) * 8, Load: uint64(n)},
		Flops:    uint64(n) * 16,
		Accesses: []gpu.Access{{Kind: gpu.LoadAccess, Base: dev.AllocBlock(4*n, "scratch").Addr(), ElemBytes: 4, Count: n, Stride: 1}},
	}, nil)
}

func TestRecorderBuildsOrderedTimeline(t *testing.T) {
	dev, r := testDev()
	launch(dev, gpu.OpGEMM, 1<<14)
	dev.CopyH2D("feat", 1<<16, 0.3)
	launch(dev, gpu.OpScatter, 1<<12)

	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
	// Events must be time-ordered and non-overlapping on the device.
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS+evs[i-1].Dur-1e-9 {
			t.Fatalf("event %d overlaps predecessor: %v then %v", i, evs[i-1], evs[i])
		}
	}
	if evs[0].Cat != "GEMM" || evs[1].Cat != "Transfer" || evs[2].Cat != "Scatter" {
		t.Fatalf("categories wrong: %s %s %s", evs[0].Cat, evs[1].Cat, evs[2].Cat)
	}
	if evs[0].Dur <= 0 {
		t.Fatal("zero-duration kernel")
	}
	if evs[0].Args["flops"] == "" || evs[1].Args["sparsity"] == "" {
		t.Fatal("args missing")
	}
}

func TestRecorderLimit(t *testing.T) {
	cfg := gpu.V100()
	cfg.MaxSampledWarps = 256
	dev := gpu.New(cfg)
	r := Attach(dev)
	r.limit = 2
	for i := 0; i < 5; i++ {
		launch(dev, gpu.OpElementWise, 1<<10)
	}
	if n := len(r.Events()); n != 2 {
		t.Fatalf("limit not enforced: %d events", n)
	}
	if r.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", r.Dropped())
	}
	// The drop count must surface in the written timeline as metadata.
	found := false
	for _, e := range r.TimelineEvents() {
		if e.Ph == "M" && e.Name == "device_events_dropped" {
			if e.Args["count"] != "3" {
				t.Fatalf("dropped metadata count = %q, want 3", e.Args["count"])
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no device_events_dropped metadata event")
	}
}

func TestWriteJSONIsValidChromeTrace(t *testing.T) {
	dev, r := testDev()
	launch(dev, gpu.OpGEMM, 1<<12)
	launch(dev, gpu.OpSort, 1<<10)

	var buf bytes.Buffer
	if err := WriteEvents(&buf, r.TimelineEvents()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var slices, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			slices++
			if e.PID != DevicePID {
				t.Fatalf("slice on pid %d, want %d: %+v", e.PID, DevicePID, e)
			}
		case "M":
			meta++
		default:
			t.Fatalf("malformed event %+v", e)
		}
	}
	if slices != 2 {
		t.Fatalf("round trip lost events: %d slices", slices)
	}
	// process_name + Transfer row + one row per op class, no drop marker.
	if want := 2 + gpu.NumOpClasses; meta != want {
		t.Fatalf("metadata events = %d, want %d", meta, want)
	}
}
