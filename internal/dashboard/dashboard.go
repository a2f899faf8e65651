// Package dashboard implements the lightweight performance dashboard the
// paper describes in §IV-F: an embedded web server for monitoring and
// online exploration of workflows, serving both a human-readable HTML
// status page and a JSON API over the live archive. Because the loader
// and the dashboard can share one in-process archive, status reflects
// events within one loader flush interval of real time.
package dashboard

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/analyzer"
	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/health"
	"repro/internal/mq"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/views"
)

// Dashboard HTTP telemetry, labeled by route pattern (fixed cardinality:
// one child per registered handler, never per URL).
var (
	mHTTPRequests = telemetry.NewCounterVec("stampede_http_requests_total",
		"Dashboard HTTP requests served, by route.", "route")
	mHTTPSeconds = telemetry.NewHistogramVec("stampede_http_request_seconds",
		"Dashboard HTTP request latency, by route.", telemetry.DurationBuckets, "route")
)

// Server is the dashboard HTTP handler set.
type Server struct {
	q     *query.QI
	mux   *http.ServeMux
	bus   func() mq.Stats // optional broker traffic snapshot for the status page
	ring  *trace.Ring     // span source for /traces and /api/traces
	views *views.Views    // optional materialized views; nil = scan per request
}

// New builds a dashboard over a query interface. The handler set includes
// GET /metrics, the Prometheus exposition of the whole process.
func New(q *query.QI) *Server {
	s := &Server{q: q, mux: http.NewServeMux(), ring: trace.Default()}
	s.handle("GET /", s.handleIndex)
	s.handle("GET /traces", s.handleWaterfall)
	s.handle("GET /api/traces", s.handleTraces)
	s.handle("GET /api/workflows", s.handleWorkflows)
	s.handleStream("GET /api/stream/workflows", s.streamWorkflows)
	s.handleStream("GET /api/stream/workflow/{uuid}", s.streamWorkflow)
	s.handle("GET /api/workflow/{uuid}", s.handleWorkflow)
	s.handle("GET /api/workflow/{uuid}/statistics", s.handleStatistics)
	s.handle("GET /api/workflow/{uuid}/jobs", s.handleJobs)
	s.handle("GET /api/workflow/{uuid}/progress", s.handleProgress)
	s.handle("GET /api/workflow/{uuid}/analyzer", s.handleAnalyzer)
	s.handle("GET /api/workflow/{uuid}/gantt", s.handleGantt)
	s.handle("GET /api/workflow/{uuid}/hosts", s.handleHosts)
	s.mux.Handle("GET /metrics", telemetry.Handler())
	return s
}

// handle registers h with request-count and latency instrumentation, and
// hands it a query interface pinned to one point-in-time snapshot for the
// duration of the request: every table the handler touches reflects the
// same instant of the live run, no matter how fast the loader is applying
// events underneath. The route label is the pattern minus its method,
// resolved once here so the per-request cost is an atomic add, a snapshot
// pin/release, and a histogram observe.
func (s *Server) handle(pattern string, h func(http.ResponseWriter, *http.Request, *query.QI)) {
	route := pattern[strings.IndexByte(pattern, ' ')+1:]
	reqs := mHTTPRequests.With(route)
	lat := mHTTPSeconds.With(route)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sq, done := s.q.Snapshot()
		// Deferred so a panicking handler (recovered by net/http) cannot
		// leak the snapshot and pin version history for the process life.
		defer func() {
			done()
			reqs.Inc()
			lat.ObserveSince(t0)
		}()
		h(w, r, sq)
	})
}

// SetViews attaches a materialized-view layer: the workflow listing and
// status page serve from it (O(workflows present), no store scan, no
// per-row state re-derivation) and the /api/stream endpoints begin
// accepting SSE subscribers. Attach the same instance the loader updates.
func (s *Server) SetViews(v *views.Views) { s.views = v }

// SetBus adds broker traffic counters (published/routed/dropped) to the
// HTML status page, the unified view the drops satellite asks for.
func (s *Server) SetBus(b *mq.Broker) { s.bus = b.Stats }

// SetTraceRing points the trace endpoints at a specific ring instead of
// the process-wide default; tests inject a hand-built ring here.
func (s *Server) SetTraceRing(r *trace.Ring) { s.ring = r }

// SetHealth mounts a health engine's endpoints (Engine.Mount) on the
// dashboard itself, so the main serving port answers the same questions
// as the -debug-addr listener. It does not route alert transitions
// anywhere: build the engine with PublishAlert as its
// health.Config.OnAlert for that.
func (s *Server) SetHealth(e *health.Engine) { e.Mount(s.mux) }

// PublishAlert pushes one alert transition to every broadcast SSE
// subscriber as a "health" event on the stream clients already watch; pass
// it as a health engine's health.Config.OnAlert. Without views attached
// there is no stream, and the transition stays in /api/alerts only.
func (s *Server) PublishAlert(a health.Alert) {
	if s.views == nil {
		return
	}
	if js, err := json.Marshal(a); err == nil {
		s.views.PublishFrame("health", js)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// WorkflowStatus is one row of the workflow listing.
type WorkflowStatus struct {
	UUID       string    `json:"uuid"`
	Label      string    `json:"label"`
	SubmitHost string    `json:"submit_host"`
	State      string    `json:"state"` // RUNNING, SUCCESS, FAILURE, UNKNOWN
	Planned    time.Time `json:"planned"`
	WallSecs   float64   `json:"wall_seconds"`
	IsRoot     bool      `json:"is_root"`
}

func (s *Server) workflowStatus(sq *query.QI, wf query.Workflow) (WorkflowStatus, error) {
	ws := WorkflowStatus{
		UUID:       wf.UUID,
		Label:      wf.DaxLabel,
		SubmitHost: wf.SubmitHost,
		Planned:    wf.Timestamp,
		IsRoot:     wf.ParentID == 0,
		State:      "UNKNOWN",
	}
	states, err := sq.WorkflowStates(wf.ID)
	if err != nil {
		return ws, err
	}
	for _, st := range states {
		switch st.State {
		case archive.WFStateStarted:
			ws.State = "RUNNING"
		case archive.WFStateTerminated:
			if st.HasStatus && st.Status != 0 {
				ws.State = "FAILURE"
			} else {
				ws.State = "SUCCESS"
			}
		}
	}
	wall, err := sq.Walltime(wf.ID)
	if err != nil {
		return ws, err
	}
	ws.WallSecs = wall.Seconds()
	return ws, nil
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing to do but log-level reporting, which
		// the dashboard deliberately omits (stdlib-only, no logger dep).
		_ = err
	}
}

func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func (s *Server) resolve(sq *query.QI, w http.ResponseWriter, r *http.Request) (*query.Workflow, bool) {
	uuid := r.PathValue("uuid")
	wf, err := sq.WorkflowByUUID(uuid)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "lookup failed: %v", err)
		return nil, false
	}
	if wf == nil {
		s.httpError(w, http.StatusNotFound, "no workflow %s", uuid)
		return nil, false
	}
	return wf, true
}

// listWorkflows produces the workflow listing: O(delta) from the view
// when one is attached — a summary row has exactly the listing's fields,
// and that the two paths agree is property-tested — otherwise the classic
// snapshot scan.
func (s *Server) listWorkflows(sq *query.QI) ([]WorkflowStatus, error) {
	if v := s.views; v != nil {
		sums := v.Summaries()
		out := make([]WorkflowStatus, len(sums))
		for i, sum := range sums {
			out[i] = WorkflowStatus(sum)
		}
		return out, nil
	}
	wfs, err := sq.Workflows()
	if err != nil {
		return nil, err
	}
	out := make([]WorkflowStatus, 0, len(wfs))
	for _, wf := range wfs {
		ws, err := s.workflowStatus(sq, wf)
		if err != nil {
			return nil, err
		}
		out = append(out, ws)
	}
	return out, nil
}

func (s *Server) handleWorkflows(w http.ResponseWriter, r *http.Request, sq *query.QI) {
	out, err := s.listWorkflows(sq)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.writeJSON(w, out)
}

func (s *Server) handleWorkflow(w http.ResponseWriter, r *http.Request, sq *query.QI) {
	wf, ok := s.resolve(sq, w, r)
	if !ok {
		return
	}
	ws, err := s.workflowStatus(sq, *wf)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	subs, err := sq.SubWorkflows(wf.ID)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	subStatuses := make([]WorkflowStatus, 0, len(subs))
	for _, sub := range subs {
		st, err := s.workflowStatus(sq, sub)
		if err != nil {
			s.httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		subStatuses = append(subStatuses, st)
	}
	s.writeJSON(w, struct {
		WorkflowStatus
		SubWorkflows []WorkflowStatus `json:"sub_workflows"`
	}{ws, subStatuses})
}

func (s *Server) handleStatistics(w http.ResponseWriter, r *http.Request, sq *query.QI) {
	wf, ok := s.resolve(sq, w, r)
	if !ok {
		return
	}
	recurse := r.URL.Query().Get("recurse") != "false"
	summary, err := stats.Compute(sq, wf.ID, recurse)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	breakdown, err := stats.Breakdown(sq, wf.ID, recurse)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.writeJSON(w, struct {
		Summary   *stats.Summary       `json:"summary"`
		Breakdown []stats.BreakdownRow `json:"breakdown"`
	}{summary, breakdown})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request, sq *query.QI) {
	wf, ok := s.resolve(sq, w, r)
	if !ok {
		return
	}
	rows, err := stats.JobsReport(sq, wf.ID)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.httpError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	s.writeJSON(w, rows)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request, sq *query.QI) {
	wf, ok := s.resolve(sq, w, r)
	if !ok {
		return
	}
	series, err := stats.ProgressSeries(sq, wf.ID)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.writeJSON(w, series)
}

func (s *Server) handleAnalyzer(w http.ResponseWriter, r *http.Request, sq *query.QI) {
	wf, ok := s.resolve(sq, w, r)
	if !ok {
		return
	}
	report, err := analyzer.Analyze(sq, wf.ID, true)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.writeJSON(w, report)
}

// poolStatus is the event-pool reuse line on the status page: how often
// the ingest hot path recycled a pooled bp.Event instead of allocating.
type poolStatus struct {
	Hits, Misses, Returns uint64
	RatePct               float64
}

// currentPoolStatus returns nil before any pool traffic so a fresh
// dashboard doesn't show a meaningless 0-for-0 rate.
func currentPoolStatus() *poolStatus {
	hits, misses, returns := bp.PoolStats()
	if hits+misses == 0 {
		return nil
	}
	return &poolStatus{
		Hits: hits, Misses: misses, Returns: returns,
		RatePct: float64(hits) / float64(hits+misses) * 100,
	}
}

// storeStatus is the partitioned-store line on the status page: the
// partition count and, for durable stores, each partition's newest
// checkpoint (sequence, size, age). In-memory stores show only the
// partition count — they take no checkpoints.
type storeStatus struct {
	Partitions  int
	Checkpoints []relstore.CheckpointStat
}

// currentStoreStatus returns nil when the dashboard's QI is pinned to a
// snapshot rather than a live store (read-only report tooling).
func (s *Server) currentStoreStatus() *storeStatus {
	store := s.q.Store()
	if store == nil {
		return nil
	}
	st := &storeStatus{Partitions: store.NumPartitions()}
	for _, cs := range store.CheckpointStats() {
		if cs.Taken {
			st.Checkpoints = append(st.Checkpoints, cs)
		}
	}
	return st
}

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>Stampede Dashboard</title>
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; }
td, th { border: 1px solid #999; padding: 4px 10px; text-align: left; }
.SUCCESS { color: #0a0; } .FAILURE { color: #a00; } .RUNNING { color: #06c; }
</style></head><body>
<h1>Stampede Workflow Dashboard</h1>
{{with .Bus}}<p class="bus">Bus: {{.Published}} published &middot; {{.Routed}} routed &middot; {{.Dropped}} dropped &middot; {{.Queues}} queues</p>
{{end}}{{with .Pool}}<p class="pool">Event pool: {{.Hits}} hits &middot; {{.Misses}} misses &middot; {{.Returns}} returned &middot; {{printf "%.1f" .RatePct}}% hit rate</p>
{{end}}{{with .Store}}<p class="store">Store: {{.Partitions}} partition{{if ne .Partitions 1}}s{{end}}{{range .Checkpoints}} &middot; p{{.Partition}} ckpt seq={{.Seq}} {{.Bytes}}B age={{printf "%.0f" .Age.Seconds}}s{{end}}</p>
{{end}}{{with .Views}}<p class="views">Views: {{.Workflows}} workflows &middot; {{.Hosts}} hosts &middot; {{.Subscribers}} subscribers &middot; {{.Updates}} updates &middot; {{.Dropped}} dropped deltas &middot; {{.Resyncs}} resyncs &middot; <a href="/api/stream/workflows">live stream</a></p>
{{end}}<p><a href="/traces">Latency waterfall</a> &middot; <a href="/api/traces">traces JSON</a> &middot; <a href="/metrics">metrics</a></p>
<table>
<tr><th>Workflow</th><th>Label</th><th>State</th><th>Wall (s)</th><th>Submit host</th></tr>
{{range .Workflows}}<tr>
<td><a href="/api/workflow/{{.UUID}}">{{.UUID}}</a></td>
<td>{{.Label}}</td>
<td class="{{.State}}">{{.State}}</td>
<td>{{printf "%.1f" .WallSecs}}</td>
<td>{{.SubmitHost}}</td>
</tr>{{end}}
</table></body></html>
`))

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request, sq *query.QI) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	statuses, err := s.listWorkflows(sq)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	var bus *mq.Stats
	if s.bus != nil {
		st := s.bus()
		bus = &st
	}
	var vst *views.Stats
	if s.views != nil {
		st := s.views.Stats()
		vst = &st
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	data := struct {
		Workflows []WorkflowStatus
		Bus       *mq.Stats
		Pool      *poolStatus
		Store     *storeStatus
		Views     *views.Stats
	}{statuses, bus, currentPoolStatus(), s.currentStoreStatus(), vst}
	if err := indexTmpl.Execute(w, data); err != nil {
		_ = err // response already partially written
	}
}
