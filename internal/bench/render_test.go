package bench_test

import (
	"bytes"
	"html"
	"strings"
	"testing"

	"gnnmark/internal/bench"
	"gnnmark/internal/report"
)

// TestRenderersAgree renders every figure — the record and every study's —
// both ways and demands that each title, lead line, column head, cell and
// note appears in the terminal text and in the HTML page, in order: there is
// one builder behind both, and neither renderer may drop a row, a panel or a
// column of it.
func TestRenderersAgree(t *testing.T) {
	figures := bench.EveryFigure(t)
	var page bytes.Buffer
	if err := report.WriteHTML(&page, "V100", figures); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, f := range figures {
		text.WriteString(f.Text())
	}
	for name, rest := range map[string]string{"text": text.String(), "html": html.UnescapeString(page.String())} {
		cells := 0
		next := func(what, s string) {
			i := strings.Index(rest, s)
			if i < 0 {
				t.Fatalf("%s rendering: %s %q is missing or out of order", name, what, s)
			}
			rest = rest[i+len(s):]
		}
		var walk func(f bench.Figure)
		walk = func(f bench.Figure) {
			if len(f.Rows)+len(f.Panels)+len(f.Notes) == 0 {
				t.Fatalf("%q has no rows, panels or notes", f.Title)
			}
			next("title", f.Title)
			for _, l := range f.Lead {
				next(f.Title+" lead", l)
			}
			for _, c := range f.Columns {
				next(f.Title+" head", c.Head)
			}
			for _, row := range f.Rows {
				for _, cell := range row {
					next(f.Title+" cell", cell.Text)
					cells++
				}
			}
			for _, p := range f.Panels {
				walk(p)
			}
			for _, n := range f.Notes {
				next(f.Title+" note", n)
			}
		}
		for _, f := range figures {
			walk(f)
		}
		if cells < 900 {
			t.Fatalf("%s rendering: walked %d cells, expected the 900-odd of every figure", name, cells)
		}
	}
}
