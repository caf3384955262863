package report

import (
	"bytes"
	"strings"
	"testing"

	"gnnmark/internal/bench"
)

func TestWriteHTML(t *testing.T) {
	headed := bench.Figure{ID: "figx", Title: "Figure X: shares (%)", Caption: "a <caption>",
		Columns: []bench.Column{{Head: "workload", Width: -12, Verb: "%s"}, {Head: "GEMM", Width: 8, Verb: "%.1f", Bar: true}, {Head: "note", Verb: "%s"}},
		Rows: [][]bench.Cell{
			{{Text: "PSAGE(MVL)"}, {Text: "40.8", Value: 40.8}, {Text: "replicated"}},
			{{Text: "average"}, {Text: "12.5", Value: 12.5}}, // a short row
		},
		Notes: []string{"suite: GEMM+SpMM share 29.8%"},
		Panels: []bench.Figure{{Title: "per-operation panel:",
			Columns: []bench.Column{{Head: "op", Verb: "%s"}, {Head: "L1", Verb: "%.1f"}},
			Rows:    [][]bench.Cell{{{Text: "Gather"}, {Text: "13.6", Value: 13.6}}}}},
	}
	headless := bench.Figure{ID: "figy", Title: "Figure Y: series",
		Columns: []bench.Column{{Verb: "%s"}, {Verb: "%.1f"}},
		Rows:    [][]bench.Cell{{{Text: "TLSTM       :"}, {Text: "24.3", Value: 24.3}}}}

	var buf bytes.Buffer
	if err := WriteHTML(&buf, "A100-SXM4-40GB", []bench.Figure{headed, headless}); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, frag := range []string{
		"<!DOCTYPE html>", "Simulated device: A100-SXM4-40GB.",
		"<h2>Figure X: shares (%)</h2>", "a &lt;caption&gt;",
		"<th>workload</th><th>GEMM</th><th>note</th>",
		`<span class="bar" style="width:41px"></span> 40.8</td>`,
		"<td>replicated</td>", "<td>average</td>",
		"suite: GEMM&#43;SpMM share 29.8%",
		"<h3>per-operation panel:</h3>", "<td>13.6</td>",
		"<h2>Figure Y: series</h2>", "TLSTM       :",
		"</html>",
	} {
		if !strings.Contains(page, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
	// Only bar columns draw bars, and a figure without heads has no header row.
	if n := strings.Count(page, `class="bar"`); n != 2 {
		t.Errorf("%d bars, want the two GEMM cells", n)
	}
	if n := strings.Count(page, "<th>"); n != 5 {
		t.Errorf("%d header cells, want 3 + 2: the headless figure prints none", n)
	}
	if strings.Contains(page, "V100") || strings.Contains(page, "NaN") || strings.Contains(page, "%!") {
		t.Errorf("device name or formatting artifacts in the page:\n%s", page)
	}
}
