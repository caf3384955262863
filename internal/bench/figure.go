package bench

import (
	"fmt"
	"slices"
	"strings"
)

// Column is one column of a figure's table: its header, its text width
// (negative left-aligns, as in fmt), the verb its values are formatted
// with, and whether the HTML page draws the value as a bar.
type Column struct {
	Head  string
	Width int
	Verb  string
	Bar   bool
}

// Cell is one formatted value and the number behind it (zero for text).
type Cell struct {
	Text  string
	Value float64
}

// Figure is one table or figure of the evaluation as data: built once from
// a characterization or a study, rendered by Text for the terminal and by
// internal/report for the HTML page. A row may be shorter than Columns; a
// column's verb may carry the words around its value ("epoch %.3f ms"), which
// is how the sentence-shaped views are tables too.
type Figure struct {
	ID, Title string   // a figure without a title prints none
	Caption   string   // HTML only
	Lead      []string // lines between the title and the table
	Columns   []Column
	Rows      [][]Cell
	Panels    []Figure // sub-tables (the per-operation views, a study's workloads)
	Notes     []string // lines under the table and its panels
}

// cols is the 12-wide label column every suite figure starts with, headed
// first, followed by one column per head sharing a width, a verb and the bar
// flag.
func cols(first string, width int, verb string, bar bool, heads ...string) []Column {
	out := []Column{{Head: first, Width: -12, Verb: "%s"}}
	for _, h := range heads {
		out = append(out, Column{h, width, verb, bar})
	}
	return out
}

// add appends one row, each value formatted by its column's verb; a Cell is
// taken as it is (a row whose values need their own verbs).
func (f *Figure) add(vals ...any) {
	row := make([]Cell, len(vals))
	for i, v := range vals {
		if c, ok := v.(Cell); ok {
			row[i] = c
			continue
		}
		row[i].Text = fmt.Sprintf(f.Columns[i].Verb, v)
		row[i].Value, _ = v.(float64)
	}
	f.Rows = append(f.Rows, row)
}

// num is a Cell formatted by its own verb.
func num(verb string, v float64) Cell { return Cell{fmt.Sprintf(verb, v), v} }

// Headed reports whether any column has a header (Figure 8's series do not).
func (f Figure) Headed() bool {
	return slices.ContainsFunc(f.Columns, func(c Column) bool { return c.Head != "" })
}

// Text renders the figure as the fixed-width block the CLI prints.
func (f Figure) Text() string {
	var b strings.Builder
	line := func(n int, text func(i int) string) {
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%*s", f.Columns[i].Width, text(i))
		}
		b.WriteByte('\n')
	}
	if f.Title != "" {
		b.WriteString(f.Title + "\n")
	}
	for _, l := range f.Lead {
		b.WriteString(l + "\n")
	}
	if f.Headed() {
		line(len(f.Columns), func(i int) string { return f.Columns[i].Head })
	}
	for _, row := range f.Rows {
		line(len(row), func(i int) string { return row[i].Text })
	}
	for _, p := range f.Panels {
		b.WriteString("\n" + p.Text())
	}
	for _, n := range f.Notes {
		b.WriteString(n + "\n")
	}
	return b.String()
}
