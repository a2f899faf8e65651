package dashboard

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/query"
	"repro/internal/trace"
)

// fixtureRing mirrors the trace package's report-test fixture: the same
// trace IDs and timestamps, so the JSON served here and the analyzer
// report built from it describe identical per-stage breakdowns.
func fixtureRing() *trace.Ring {
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC).UnixNano()
	ms := int64(time.Millisecond)
	r := trace.NewRing(64)

	r.Record(0x2a, trace.StageEmit, "wf-aaaa", base, base+2*ms)
	r.Record(0x2a, trace.StageRoute, "wf-aaaa", base+2*ms, base+5*ms)
	r.Record(0x2a, trace.StageParse, "wf-aaaa", base+5*ms, base+5*ms+ms/2)
	r.Record(0x2a, trace.StageQueue, "wf-aaaa", base+5*ms+ms/2, base+30*ms)
	r.Record(0x2a, trace.StageApply, "wf-aaaa", base+30*ms, base+32*ms)
	r.RecordCommit(0x2a, "wf-aaaa", base+32*ms, base+33*ms, 7)

	fb := base + 100*ms
	r.Record(0x77, trace.StageEmit, "wf-bbbb", fb, fb+ms)
	r.Record(0x77, trace.StageParse, "wf-bbbb", fb+ms, fb+2*ms)
	r.Record(0x77, trace.StageQueue, "wf-bbbb", fb+2*ms, fb+50*ms)
	r.Record(0x77, trace.StageApply, "wf-bbbb", fb+50*ms, fb+58*ms)
	r.RecordCommit(0x77, "wf-bbbb", fb+58*ms, fb+60*ms, 8)

	db := base + 200*ms
	r.Record(0x99, trace.StageDropped, "slow.consumer", db, db+15*ms)
	return r
}

func traceServer() *Server {
	srv := New(query.New(archive.NewInMemory()))
	srv.SetTraceRing(fixtureRing())
	return srv
}

// TestTracesAPIGolden pins the /api/traces JSON byte-for-byte: a fixed
// ring must serve a fixed waterfall.
func TestTracesAPIGolden(t *testing.T) {
	rec := get(t, traceServer(), "/api/traces")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /api/traces = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	golden(t, "traces_api.golden", rec.Body.String())
}

// TestTracesAPIMatchesAnalyzerReport asserts the consistency contract
// between the two surfaces: building the analyzer's latency report from
// the served JSON yields per-stage span counts that agree with the spans
// in the JSON itself, trace ID by trace ID.
func TestTracesAPIMatchesAnalyzerReport(t *testing.T) {
	rec := get(t, traceServer(), "/api/traces")
	var dump trace.Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("decode /api/traces: %v", err)
	}
	if dump.SampleEvery != trace.SampleEvery() {
		t.Errorf("sample_every = %d, want %d", dump.SampleEvery, trace.SampleEvery())
	}
	wantIDs := map[string]bool{
		"000000000000002a": true, "0000000000000077": true, "0000000000000099": true,
	}
	stageCounts := map[string]int{}
	for _, tr := range dump.Traces {
		if !wantIDs[tr.ID] {
			t.Errorf("unexpected trace id %s", tr.ID)
		}
		delete(wantIDs, tr.ID)
		for _, h := range tr.Spans {
			stageCounts[h.Stage]++
		}
	}
	for id := range wantIDs {
		t.Errorf("trace %s missing from /api/traces", id)
	}

	rep := trace.BuildReport(dump.Traces, dump.SampleEvery)
	for _, st := range rep.Stages {
		if st.Count != stageCounts[st.Stage] {
			t.Errorf("stage %s: report has %d spans, JSON has %d", st.Stage, st.Count, stageCounts[st.Stage])
		}
		delete(stageCounts, st.Stage)
	}
	for stage, n := range stageCounts {
		t.Errorf("stage %s (%d spans) in JSON but absent from report", stage, n)
	}
	if rep.Traces != 3 || rep.Dropped != 1 {
		t.Errorf("report Traces=%d Dropped=%d, want 3 and 1", rep.Traces, rep.Dropped)
	}
}

// TestWaterfallPage checks the HTML view renders every fixture trace
// with positioned stage bars.
func TestWaterfallPage(t *testing.T) {
	rec := get(t, traceServer(), "/traces")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /traces = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"000000000000002a", "0000000000000077", "0000000000000099",
		`class="bar commit"`, `class="bar route"`, `class="bar dropped"`,
		"wf-aaaa", "wf-bbbb", "dropped on slow.consumer",
		"sample rate 1/64",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("waterfall page missing %q", want)
		}
	}
	// Bars carry percent geometry computed server-side.
	if !strings.Contains(body, "left:") || !strings.Contains(body, "width:") {
		t.Error("waterfall bars have no geometry")
	}
}

// SetTraceRing points the trace endpoints at a specific ring instead of
// the process-wide default; tests inject a hand-built ring here.
func (s *Server) SetTraceRing(r *trace.Ring) { s.ring = r }
