package report

import (
	"bytes"
	"strings"
	"testing"

	"gnnmark/internal/bench"
	"gnnmark/internal/core"
	"gnnmark/internal/ddp"
)

func TestWriteHTML(t *testing.T) {
	suite, err := bench.Characterize(core.RunConfig{Epochs: 1, Seed: 1, SampledWarps: 256})
	if err != nil {
		t.Fatal(err)
	}
	scaling := []bench.ScalingResult{
		{Workload: "STGCN", Results: []ddp.ClusterResult{
			{GPUs: 1, Speedup: 1}, {GPUs: 2, Speedup: 1.5}, {GPUs: 4, Speedup: 2.1},
		}},
		{Workload: "PSAGE", Results: []ddp.ClusterResult{
			{GPUs: 1, Speedup: 1}, {GPUs: 2, Speedup: 0.8, Replicated: true},
			{GPUs: 4, Speedup: 0.7, Replicated: true},
		}},
	}

	var buf bytes.Buffer
	if err := WriteHTML(&buf, suite, scaling); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	for _, frag := range []string{
		"<!DOCTYPE html>",
		"Table I",
		"Figure 2", "Figure 7", "Figure 9",
		"PSAGE(MVL)", "PinSAGE", "Tree-LSTM",
		"replicated (sampler not DDP-compatible)",
		"class=\"bar\"",
		"</html>",
	} {
		if !strings.Contains(html, frag) {
			t.Fatalf("report missing %q", frag)
		}
	}
	// Every suite run appears in the Figure 2 table.
	for _, r := range suite.Results {
		if strings.Count(html, r.Label()) < 6 {
			t.Fatalf("%s missing from figures", r.Label())
		}
	}
	if strings.Contains(html, "NaN") || strings.Contains(html, "%!") {
		t.Fatal("formatting artifacts in report")
	}
}
