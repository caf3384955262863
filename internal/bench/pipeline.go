package bench

import (
	"fmt"
	"strings"

	"gnnmark/internal/core"
	"gnnmark/internal/vmem"
)

// FigP characterizes the suite with the asynchronous input pipeline forced
// on. One pipelined run carries both epoch times — the device's serialized
// clock is the synchronous baseline, the two-stream timeline the overlapped
// one — so no second sweep is needed. cfg.PipelineDepth defaults to 4;
// cfg.CompressH2D is honored as given (encoded bytes are modeled either
// way, so the ratio column is always meaningful).
func FigP(cfg core.RunConfig) (*Suite, error) {
	if cfg.PipelineDepth <= 0 {
		cfg.PipelineDepth = 4
	}
	return Characterize(cfg)
}

// FormatFigP renders the input-pipeline characterization (our "Fig. P",
// extending the paper's data-loading observations of §IV-B): synchronous vs
// overlapped epoch time, the copy time hidden behind compute, and the
// raw-vs-encoded H2D payload of the sparsity codec.
func FormatFigP(s *Suite) string {
	var b strings.Builder
	mode := "raw wire bytes"
	if s.Config.CompressH2D {
		mode = "sparsity-encoded wire bytes"
	}
	fmt.Fprintf(&b, "Figure P: asynchronous input pipeline, depth %d, %s\n", s.Config.PipelineDepth, mode)
	fmt.Fprintf(&b, "%-12s %11s %11s %8s %8s %10s %10s %6s\n",
		"workload", "sync/ep", "piped/ep", "speedup", "overlap", "H2D raw", "encoded", "ratio")
	for _, r := range s.Results {
		var sync, pipe, copyBusy, exposed float64
		var raw, enc uint64
		for _, pe := range r.Pipe {
			sync += pe.SyncSeconds
			pipe += pe.PipeSeconds
			copyBusy += pe.CopyBusy
			exposed += pe.ExposedCopySeconds()
			raw += pe.RawBytes
			enc += pe.EncodedBytes
		}
		eps := float64(len(r.Pipe))
		if eps == 0 {
			continue
		}
		overlap := 0.0
		if copyBusy > 0 {
			overlap = 100 * (1 - exposed/copyBusy)
		}
		speedup := 1.0
		if pipe > 0 {
			speedup = sync / pipe
		}
		ratio := 1.0
		if enc > 0 {
			ratio = float64(raw) / float64(enc)
		}
		fmt.Fprintf(&b, "%-12s %9.3fms %9.3fms %7.3fx %7.1f%% %10s %10s %5.2fx\n",
			r.Label(), 1e3*sync/eps, 1e3*pipe/eps, speedup, overlap,
			vmem.FormatBytes(int64(raw)), vmem.FormatBytes(int64(enc)), ratio)
	}
	return b.String()
}
