package dashboard

import (
	"html/template"
	"net/http"

	"repro/internal/query"
	"repro/internal/trace"
)

// handleTraces serves the assembled sampled traces as JSON: the same
// per-stage breakdown the waterfall view draws and stampede-analyzer
// -traces aggregates into the latency percentile report.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request, _ *query.QI) {
	s.writeJSON(w, trace.Dump{
		SampleEvery: trace.SampleEvery(),
		Traces:      trace.Collect(s.ring),
	})
}

// waterfallRow is one trace prepared for the HTML view: each span as a
// bar positioned in percent of the trace's total wall time.
type waterfallRow struct {
	Trace trace.Trace
	Bars  []waterfallBar
}

type waterfallBar struct {
	Stage   string
	Seconds float64
	Left    float64 // percent offset from trace start
	Width   float64 // percent of trace total
}

// maxWaterfallRows bounds the HTML view to the most recent traces; the
// JSON endpoint serves the full ring.
const maxWaterfallRows = 50

func (s *Server) handleWaterfall(w http.ResponseWriter, r *http.Request, _ *query.QI) {
	traces := trace.Collect(s.ring)
	if len(traces) > maxWaterfallRows {
		traces = traces[len(traces)-maxWaterfallRows:]
	}
	rows := make([]waterfallRow, 0, len(traces))
	for _, tr := range traces {
		total := tr.Total
		if total <= 0 {
			total = 1e-9
		}
		row := waterfallRow{Trace: tr}
		for _, h := range tr.Spans {
			left := h.Offset / total * 100
			width := h.Seconds / total * 100
			if left < 0 {
				left = 0
			}
			if left > 100 {
				left = 100
			}
			if width < 0.5 {
				width = 0.5 // keep instantaneous spans visible
			}
			if left+width > 100 {
				width = 100 - left
			}
			row.Bars = append(row.Bars, waterfallBar{
				Stage: h.Stage, Seconds: h.Seconds, Left: left, Width: width,
			})
		}
		rows = append(rows, row)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	data := struct {
		SampleEvery int
		Rows        []waterfallRow
	}{trace.SampleEvery(), rows}
	if err := waterfallTmpl.Execute(w, data); err != nil {
		_ = err // response already partially written
	}
}

var waterfallTmpl = template.Must(template.New("waterfall").Parse(`<!DOCTYPE html>
<html><head><title>Stampede Latency Waterfall</title>
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; width: 100%; }
td, th { border: 1px solid #ccc; padding: 4px 8px; text-align: left; font-size: 13px; }
.lane { position: relative; height: 18px; min-width: 360px; background: #f4f4f4; }
.bar { position: absolute; top: 2px; height: 14px; opacity: 0.85; }
.bar.emit { background: #888; } .bar.route { background: #b58900; }
.bar.parse { background: #268bd2; }
.bar.queue { background: #2aa198; } .bar.apply { background: #859900; }
.bar.commit { background: #cb4b16; } .bar.dropped { background: #dc322f; }
.legend span { display: inline-block; margin-right: 1em; font-size: 13px; }
.swatch { display: inline-block; width: 10px; height: 10px; margin-right: 4px; }
.id { font-family: monospace; }
</style></head><body>
<h1>Latency waterfall</h1>
<p>Sampled traces from engine emission to snapshot visibility (sample rate 1/{{.SampleEvery}}).
JSON at <a href="/api/traces">/api/traces</a>.</p>
<p class="legend">
<span><span class="swatch bar emit"></span>emit</span>
<span><span class="swatch bar route"></span>route</span>
<span><span class="swatch bar parse"></span>parse</span>
<span><span class="swatch bar queue"></span>queue</span>
<span><span class="swatch bar apply"></span>apply</span>
<span><span class="swatch bar commit"></span>commit</span>
<span><span class="swatch bar dropped"></span>dropped</span>
</p>
<table>
<tr><th>Trace</th><th>Workflow</th><th>Start</th><th>Total (s)</th><th>Waterfall</th></tr>
{{range .Rows}}<tr>
<td class="id">{{.Trace.ID}}</td>
<td class="id">{{if .Trace.Dropped}}dropped on {{.Trace.Queue}}{{else}}{{.Trace.Workflow}}{{end}}</td>
<td>{{.Trace.Start}}</td>
<td>{{printf "%.6f" .Trace.Total}}</td>
<td><div class="lane">{{range .Bars}}<div class="bar {{.Stage}}" style="left:{{printf "%.2f" .Left}}%;width:{{printf "%.2f" .Width}}%" title="{{.Stage}}: {{printf "%.6f" .Seconds}}s"></div>{{end}}</div></td>
</tr>{{end}}
</table></body></html>
`))
