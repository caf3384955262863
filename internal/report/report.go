// Package report renders the evaluation's figures as a single
// self-contained HTML page: each bench.Figure, in the order Figure.Text
// prints it (lead lines, table, panels, notes), as a table with inline bar
// visuals, no JavaScript or external assets. The CLI's "report" command
// writes it; CI systems can archive it per run.
package report

import (
	"fmt"
	"html/template"
	"io"

	"gnnmark/internal/bench"
)

type page struct {
	Title   string
	Device  string
	Figures []bench.Figure
}

var tmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{{.Title}}</title>
<style>
body{font-family:system-ui,sans-serif;margin:2rem;max-width:72rem}
h1{font-size:1.4rem} h2{font-size:1.1rem;margin-top:2rem} h3{font-size:.95rem}
table{border-collapse:collapse;margin:.5rem 0}
td,th{border:1px solid #ccc;padding:.25rem .5rem;font-size:.85rem;text-align:right}
th:first-child,td:first-child{text-align:left}
.bar{display:inline-block;height:.7rem;background:#4a78c2;vertical-align:middle}
.cap{color:#555;font-size:.8rem;max-width:60rem}
</style></head><body>
<h1>{{.Title}}</h1>
<p class="cap">Simulated device: {{.Device}}. All values come from the
analytical model of that device; see EXPERIMENTS.md for paper-vs-measured notes.</p>
{{range .Figures}}
<h2>{{.Title}}</h2>
{{with .Caption}}<p class="cap">{{.}}</p>{{end}}
{{template "figure" .}}{{end}}
</body></html>
{{define "figure"}}{{template "lines" .Lead}}{{if .Rows}}<table>{{if .Headed}}<tr>{{range .Columns}}<th>{{.Head}}</th>{{end}}</tr>{{end}}
{{$columns := .Columns}}{{range .Rows}}<tr>{{range $i, $cell := .}}<td>
{{- if (index $columns $i).Bar}}<span class="bar" style="width:{{printf "%.0f" $cell.Value}}px"></span> {{end -}}
{{$cell.Text}}</td>{{end}}</tr>
{{end}}</table>
{{end}}{{range .Panels}}<h3>{{.Title}}</h3>
{{template "figure" .}}{{end}}{{template "lines" .Notes}}{{end}}
{{define "lines"}}{{range .}}{{with .}}<p class="cap">{{.}}</p>
{{end}}{{end}}{{end}}`))

// WriteHTML renders the figures, in order, as one page headed by the name
// of the device they were measured on.
func WriteHTML(w io.Writer, device string, figures []bench.Figure) error {
	p := page{Title: "GNNMark-Go characterization report", Device: device, Figures: figures}
	if err := tmpl.Execute(w, p); err != nil {
		return fmt.Errorf("report: rendering HTML: %w", err)
	}
	return nil
}
