package core

import "testing"

// runPipe is a short ARGA characterization with the given pipeline config.
// ARGA re-uploads the full ~91%-zero Cora feature matrix every iteration
// (paper Fig. 7), making it both the overlap and the compression showcase.
func runPipe(t *testing.T, depth int, compress bool) RunResult {
	t.Helper()
	res, err := Run(RunConfig{
		Workload: "ARGA", Epochs: 4, Seed: 7, SampledWarps: 256,
		PipelineDepth: depth, CompressH2D: compress,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pipe) != len(res.EpochSeconds) {
		t.Fatalf("pipe epochs %d != epochs %d", len(res.Pipe), len(res.EpochSeconds))
	}
	return res
}

// With depth >= 2 the staged feature upload of epoch e+1 overlaps epoch e's
// compute, so the overlapped timeline beats the serialized clock.
func TestPipelineOverlapBeatsSync(t *testing.T) {
	res := runPipe(t, 2, false)
	var sync, pipe float64
	for _, pe := range res.Pipe {
		sync += pe.SyncSeconds
		pipe += pe.PipeSeconds
	}
	if pipe >= sync {
		t.Fatalf("pipelined epochs %.6fs not faster than sync %.6fs", pipe, sync)
	}
	// Some copy time must actually be hidden for the win to be overlap.
	var hidden float64
	for _, pe := range res.Pipe {
		hidden += pe.CopyBusy - pe.ExposedCopySeconds()
	}
	if hidden <= 0 {
		t.Fatalf("no copy time hidden (sync %.6fs, pipe %.6fs)", sync, pipe)
	}
	// SyncSeconds must equal the device's serialized epoch time: the
	// pipeline reports both numbers from one run.
	for ep, pe := range res.Pipe {
		if pe.SyncSeconds != res.EpochSeconds[ep] {
			t.Fatalf("epoch %d: SyncSeconds %x != EpochSeconds %x",
				ep, pe.SyncSeconds, res.EpochSeconds[ep])
		}
	}
}

// Depth 1 stages one batch ahead; the overlapped time can never exceed the
// serialized clock (copies only ever start earlier, not later).
func TestPipelineDepthOneNoSlowdown(t *testing.T) {
	res := runPipe(t, 1, false)
	for ep, pe := range res.Pipe {
		if pe.PipeSeconds > pe.SyncSeconds+1e-12 {
			t.Fatalf("epoch %d: pipelined %.9fs exceeds sync %.9fs", ep, pe.PipeSeconds, pe.SyncSeconds)
		}
	}
}

// -compress-h2d on the ~91%-zero ARGA features must cut modeled H2D bytes
// at least 2x, and the compressed copy stream must be cheaper than raw.
func TestPipelineCompressionTwofold(t *testing.T) {
	raw := runPipe(t, 2, false)
	comp := runPipe(t, 2, true)
	var rawB, encB uint64
	var rawCopy, compCopy float64
	for ep := range comp.Pipe {
		rawB += comp.Pipe[ep].RawBytes
		encB += comp.Pipe[ep].EncodedBytes
		rawCopy += raw.Pipe[ep].CopyBusy
		compCopy += comp.Pipe[ep].CopyBusy
	}
	if encB == 0 || float64(rawB)/float64(encB) < 2 {
		t.Fatalf("compression ratio %.2f < 2 (raw %d, encoded %d)",
			float64(rawB)/float64(max(1, int(encB))), rawB, encB)
	}
	if compCopy >= rawCopy {
		t.Fatalf("compressed copy busy %.6fs not below raw %.6fs", compCopy, rawCopy)
	}
	// The device's serialized clock always accounts raw bytes: compression
	// must not perturb the baseline numbers.
	for ep := range comp.Pipe {
		if comp.Pipe[ep].SyncSeconds != raw.Pipe[ep].SyncSeconds {
			t.Fatalf("epoch %d: compression changed the sync clock", ep)
		}
	}
}

// The copy-engine stream lane exists alongside compute.
func TestPipelineStreamLanes(t *testing.T) {
	res := runPipe(t, 2, false)
	if len(res.StreamLanes) != 2 {
		t.Fatalf("want 2 stream lanes, got %d", len(res.StreamLanes))
	}
	names := map[string]bool{}
	for _, l := range res.StreamLanes {
		names[l.Name] = true
	}
	if !names["compute"] || !names["copy engine"] {
		t.Fatalf("lanes missing compute/copy engine: %v", names)
	}
}
