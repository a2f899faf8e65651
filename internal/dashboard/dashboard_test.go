package dashboard

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/loader"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/synth"
)

func serve(t *testing.T, cfg synth.Config) (*httptest.Server, *synth.Trace) {
	t.Helper()
	tr := synth.Generate(cfg)
	a := archive.NewInMemory()
	l, err := loader.New(a, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadReader(&buf); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(query.New(a)))
	t.Cleanup(srv.Close)
	return srv, tr
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s -> %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp
}

func TestWorkflowListing(t *testing.T) {
	srv, tr := serve(t, synth.Config{Seed: 1, Jobs: 16, SubWorkflows: 2})
	var list []WorkflowStatus
	getJSON(t, srv.URL+"/api/workflows", &list)
	if len(list) != 3 {
		t.Fatalf("workflows = %d, want 3", len(list))
	}
	roots := 0
	for _, ws := range list {
		if ws.State != "SUCCESS" {
			t.Errorf("workflow %s state %s", ws.UUID, ws.State)
		}
		if ws.IsRoot {
			roots++
			if ws.UUID != tr.RootUUID {
				t.Errorf("unexpected root %s", ws.UUID)
			}
		}
	}
	if roots != 1 {
		t.Errorf("roots = %d", roots)
	}
}

func TestWorkflowDetailWithSubs(t *testing.T) {
	srv, tr := serve(t, synth.Config{Seed: 2, Jobs: 16, SubWorkflows: 4})
	var detail struct {
		WorkflowStatus
		SubWorkflows []WorkflowStatus `json:"sub_workflows"`
	}
	getJSON(t, srv.URL+"/api/workflow/"+tr.RootUUID, &detail)
	if detail.UUID != tr.RootUUID || len(detail.SubWorkflows) != 4 {
		t.Fatalf("detail = %+v", detail)
	}
	if detail.WallSecs <= 0 {
		t.Error("wall seconds missing")
	}
}

func TestStatisticsEndpoint(t *testing.T) {
	srv, tr := serve(t, synth.Config{Seed: 3, Jobs: 20, SubWorkflows: 2})
	var out struct {
		Summary   *stats.Summary       `json:"summary"`
		Breakdown []stats.BreakdownRow `json:"breakdown"`
	}
	getJSON(t, srv.URL+"/api/workflow/"+tr.RootUUID+"/statistics", &out)
	if out.Summary == nil || out.Summary.Jobs.Total != 22 {
		t.Fatalf("summary = %+v", out.Summary)
	}
	if len(out.Breakdown) == 0 {
		t.Error("empty breakdown")
	}
	// Non-recursive scope.
	var flat struct {
		Summary *stats.Summary `json:"summary"`
	}
	getJSON(t, srv.URL+"/api/workflow/"+tr.RootUUID+"/statistics?recurse=false", &flat)
	if flat.Summary.Jobs.Total != 2 {
		t.Fatalf("non-recursive jobs = %d", flat.Summary.Jobs.Total)
	}
}

func TestJobsEndpointWithLimit(t *testing.T) {
	srv, tr := serve(t, synth.Config{Seed: 4, Jobs: 10})
	var rows []stats.JobRow
	getJSON(t, srv.URL+"/api/workflow/"+tr.RootUUID+"/jobs", &rows)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	var limited []stats.JobRow
	getJSON(t, srv.URL+"/api/workflow/"+tr.RootUUID+"/jobs?limit=3", &limited)
	if len(limited) != 3 {
		t.Fatalf("limited rows = %d", len(limited))
	}
	resp, err := http.Get(srv.URL + "/api/workflow/" + tr.RootUUID + "/jobs?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit -> %d", resp.StatusCode)
	}
}

func TestProgressEndpoint(t *testing.T) {
	srv, tr := serve(t, synth.Config{Seed: 5, Jobs: 24, SubWorkflows: 3})
	var series map[string][]stats.ProgressPoint
	getJSON(t, srv.URL+"/api/workflow/"+tr.RootUUID+"/progress", &series)
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
}

func TestAnalyzerEndpoint(t *testing.T) {
	srv, tr := serve(t, synth.Config{Seed: 11, Jobs: 30, FailureRate: 0.4, MaxRetries: 0})
	var report struct {
		Failed     int `json:"Failed"`
		FailedJobs []struct {
			ExecJobID string
		} `json:"FailedJobs"`
	}
	getJSON(t, srv.URL+"/api/workflow/"+tr.RootUUID+"/analyzer", &report)
	if report.Failed != tr.FailedJobs {
		t.Errorf("failed = %d, trace %d", report.Failed, tr.FailedJobs)
	}
	if len(report.FailedJobs) != report.Failed {
		t.Errorf("details = %d", len(report.FailedJobs))
	}
}

func TestNotFoundAndIndex(t *testing.T) {
	srv, _ := serve(t, synth.Config{Seed: 6, Jobs: 2})
	resp, err := http.Get(srv.URL + "/api/workflow/00000000-0000-0000-0000-000000000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing workflow -> %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index -> %d", resp.StatusCode)
	}
	html := string(body)
	for _, want := range []string{"Stampede Workflow Dashboard", "SUCCESS", "<table>"} {
		if !strings.Contains(html, want) {
			t.Errorf("index missing %q", want)
		}
	}
	resp, err = http.Get(srv.URL + "/nonexistent-page")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path -> %d", resp.StatusCode)
	}
}

func TestRunningWorkflowState(t *testing.T) {
	// Load only a prefix of the trace (everything before xwf.end): the
	// dashboard must report RUNNING.
	tr := synth.Generate(synth.Config{Seed: 7, Jobs: 4})
	a := archive.NewInMemory()
	l, _ := loader.New(a, loader.Options{})
	var buf bytes.Buffer
	for _, ev := range tr.Events {
		if ev.Type == "stampede.xwf.end" {
			continue
		}
		buf.WriteString(ev.Format())
		buf.WriteByte('\n')
	}
	if _, err := l.LoadReader(&buf); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(query.New(a)))
	defer srv.Close()
	var list []WorkflowStatus
	getJSON(t, srv.URL+"/api/workflows", &list)
	if len(list) != 1 || list[0].State != "RUNNING" {
		t.Fatalf("state = %+v", list)
	}
}

// snapshotsLive scrapes the live-snapshot gauge from GET /metrics.
func snapshotsLive(t *testing.T, base string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, `stampede_relstore_snapshots_live{partition="0"} `); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				t.Fatalf("bad gauge value %q: %v", v, err)
			}
			return f
		}
	}
	t.Fatal("stampede_relstore_snapshots_live not in exposition")
	return 0
}

// TestPanickingHandlerReleasesSnapshot: a handler panic (recovered by
// net/http) must not leak the per-request snapshot; a leak would pin
// version history — and the GC horizon — for the life of the process.
func TestPanickingHandlerReleasesSnapshot(t *testing.T) {
	a := archive.NewInMemory()
	defer a.Close()
	s := New(query.New(a))
	s.handle("GET /boom", func(http.ResponseWriter, *http.Request, *query.QI) {
		panic("kaboom")
	})
	srv := httptest.NewServer(s)
	defer srv.Close()
	srv.Config.ErrorLog = log.New(io.Discard, "", 0) // silence the panic trace

	before := snapshotsLive(t, srv.URL)
	if resp, err := http.Get(srv.URL + "/boom"); err == nil {
		// net/http may answer 500 or just sever the connection; either way
		// the request is done once we get here.
		resp.Body.Close()
	}
	if after := snapshotsLive(t, srv.URL); after != before {
		t.Fatalf("snapshots_live = %v after panic, want %v (snapshot leaked)", after, before)
	}
}
