package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"gnnmark/internal/gpu"
	"gnnmark/internal/obs"
	"gnnmark/internal/stream"
)

func TestHostEventsMergeAsSecondProcess(t *testing.T) {
	t.Parallel()
	run := obs.NewRun()
	tr := run.Track("host-test")
	if tr == nil {
		t.Fatal("Track returned nil on a run")
	}
	outer := tr.Begin("epoch", "phase")
	tr.Record("op", "GEMM", obs.Nanos(), 10)
	outer.End()

	dev, r := testDev()
	launch(dev, gpu.OpGEMM, 1<<12)

	merged := append(r.TimelineEvents(), HostEvents(run)...)
	var buf bytes.Buffer
	if err := WriteEvents(&buf, merged); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}

	pids := map[int]bool{}
	hostSlices, hostNamed := 0, false
	for _, e := range doc.TraceEvents {
		pids[e.PID] = true
		if e.PID == HostPID {
			if e.Ph == "X" {
				hostSlices++
			}
			if e.Ph == "M" && e.Name == "process_name" && e.Args["name"] == "host" {
				hostNamed = true
			}
		}
	}
	if !pids[DevicePID] || !pids[HostPID] {
		t.Fatalf("merged trace missing a process: pids = %v", pids)
	}
	if hostSlices < 2 {
		t.Fatalf("host slices = %d, want >= 2 (epoch span + recorded op)", hostSlices)
	}
	if !hostNamed {
		t.Fatal("host process_name metadata missing")
	}
}

func TestStreamLaneEventsNameCopyEngineRow(t *testing.T) {
	cfg := gpu.V100()
	cfg.MaxSampledWarps = 64
	dev := gpu.New(cfg)
	tl := stream.New(dev)
	compute := tl.NewStream("compute")
	copyEng := tl.NewStream("copy engine")
	copyEng.CopyH2D("feat", 1<<20, 1<<18, 0.9)
	compute.Wait(copyEng.Record())
	compute.Launch(&gpu.Kernel{Name: "gemm", Class: gpu.OpGEMM, Threads: 1 << 10})

	events := StreamLaneEvents(tl.Lanes())
	var laneNames []string
	slices := map[int]int{} // tid -> X count
	for _, e := range events {
		if e.PID != DevicePID {
			t.Fatalf("stream lane event on pid %d, want DevicePID", e.PID)
		}
		if e.Ph == "M" && e.Name == "thread_name" {
			if e.TID < streamTIDBase {
				t.Fatalf("lane tid %d collides with per-class device rows", e.TID)
			}
			laneNames = append(laneNames, e.Args["name"])
		}
		if e.Ph == "X" {
			slices[e.TID]++
		}
	}
	want := []string{"stream: compute", "stream: copy engine"}
	if len(laneNames) != 2 || laneNames[0] != want[0] || laneNames[1] != want[1] {
		t.Fatalf("lane names = %v, want %v", laneNames, want)
	}
	if slices[streamTIDBase] != 1 || slices[streamTIDBase+1] != 1 {
		t.Fatalf("per-lane slice counts = %v, want one each", slices)
	}
	// Copy slices carry the wire-byte payload for inspection in Perfetto.
	for _, e := range events {
		if e.Ph == "X" && e.Cat == "copy" && e.Args["wire_bytes"] != "262144" {
			t.Fatalf("copy slice args = %v, want wire_bytes=262144", e.Args)
		}
	}
}
