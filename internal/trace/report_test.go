package trace

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureRing builds a deterministic ring: two full pipeline traces and
// one drop tombstone, all at fixed timestamps. The dashboard tests build
// the identical fixture so /api/traces and the analyzer report are
// checked against the same trace IDs.
func fixtureRing() *Ring {
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC).UnixNano()
	ms := int64(time.Millisecond)
	r := NewRing(64)

	// Trace 0x2a: bus-fed event, emission through commit.
	r.Record(0x2a, StageEmit, "wf-aaaa", base, base+2*ms)
	r.Record(0x2a, StageRoute, "wf-aaaa", base+2*ms, base+5*ms)
	r.Record(0x2a, StageParse, "wf-aaaa", base+5*ms, base+5*ms+ms/2)
	r.Record(0x2a, StageQueue, "wf-aaaa", base+5*ms+ms/2, base+30*ms)
	r.Record(0x2a, StageApply, "wf-aaaa", base+30*ms, base+32*ms)
	r.RecordCommit(0x2a, "wf-aaaa", base+32*ms, base+33*ms, 7)

	// Trace 0x77: file load (no route hop), slower apply window.
	fb := base + 100*ms
	r.Record(0x77, StageEmit, "wf-bbbb", fb, fb+ms)
	r.Record(0x77, StageParse, "wf-bbbb", fb+ms, fb+2*ms)
	r.Record(0x77, StageQueue, "wf-bbbb", fb+2*ms, fb+50*ms)
	r.Record(0x77, StageApply, "wf-bbbb", fb+50*ms, fb+58*ms)
	r.RecordCommit(0x77, "wf-bbbb", fb+58*ms, fb+60*ms, 8)

	// Trace 0x99: copy dropped on a saturated queue.
	db := base + 200*ms
	r.Record(0x99, StageDropped, "slow.consumer", db, db+15*ms)
	return r
}

func TestCollectAssemblesTraces(t *testing.T) {
	traces := Collect(fixtureRing())
	if len(traces) != 3 {
		t.Fatalf("got %d traces, want 3", len(traces))
	}

	a := traces[0]
	if a.ID != "000000000000002a" || a.Workflow != "wf-aaaa" || a.Dropped {
		t.Fatalf("trace A = %+v", a)
	}
	if a.Epoch != 7 {
		t.Fatalf("trace A epoch = %d, want 7", a.Epoch)
	}
	if len(a.Spans) != 6 {
		t.Fatalf("trace A has %d spans, want 6", len(a.Spans))
	}
	if a.Spans[0].Stage != "emit" || a.Spans[5].Stage != "commit" {
		t.Fatalf("trace A stage order: %v ... %v", a.Spans[0].Stage, a.Spans[5].Stage)
	}
	if got, want := a.Total, 0.033; got != want {
		t.Fatalf("trace A total = %v, want %v", got, want)
	}
	if a.Start != "2026-08-05T12:00:00.000000000Z" {
		t.Fatalf("trace A start = %q", a.Start)
	}

	b := traces[1]
	if b.ID != "0000000000000077" || len(b.Spans) != 5 || b.Epoch != 8 {
		t.Fatalf("trace B = %+v", b)
	}

	d := traces[2]
	if !d.Dropped || d.Queue != "slow.consumer" || d.Workflow != "" {
		t.Fatalf("tombstone trace = %+v", d)
	}
}

func TestReportConsistentWithTraces(t *testing.T) {
	traces := Collect(fixtureRing())
	rep := BuildReport(traces, 64)

	// Every stage's span count in the report must equal the number of
	// spans of that stage across the assembled traces — the same trace
	// IDs produce the same per-stage breakdown in both surfaces.
	counts := map[string]int{}
	for _, tr := range traces {
		for _, h := range tr.Spans {
			counts[h.Stage]++
		}
	}
	seen := map[string]bool{}
	for _, st := range rep.Stages {
		if st.Count != counts[st.Stage] {
			t.Errorf("stage %s: report count %d, traces have %d", st.Stage, st.Count, counts[st.Stage])
		}
		seen[st.Stage] = true
	}
	for stage, n := range counts {
		if n > 0 && !seen[stage] {
			t.Errorf("stage %s in traces but missing from report", stage)
		}
	}
	if rep.Traces != 3 || rep.Dropped != 1 {
		t.Fatalf("Traces=%d Dropped=%d, want 3 and 1", rep.Traces, rep.Dropped)
	}
	// End-to-end excludes the tombstone-only trace.
	if rep.Total.Count != 2 {
		t.Fatalf("end-to-end count = %d, want 2", rep.Total.Count)
	}
	if rep.Total.Max != 0.060 {
		t.Fatalf("end-to-end max = %v, want 0.06", rep.Total.Max)
	}
}

func TestReportGolden(t *testing.T) {
	rep := BuildReport(Collect(fixtureRing()), 64)
	got := rep.Render()
	golden := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("report drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestDumpRoundTrips(t *testing.T) {
	in := Dump{SampleEvery: 64, Traces: Collect(fixtureRing())}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Dump
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.SampleEvery != 64 || len(out.Traces) != len(in.Traces) {
		t.Fatalf("round trip lost data: %+v", out)
	}
	// The analyzer consumes exactly this decoded form.
	rep := BuildReport(out.Traces, out.SampleEvery)
	if rep.Traces != 3 {
		t.Fatalf("report over decoded dump: %d traces", rep.Traces)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(vs, 0.50); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(vs, 0.90); p != 9 {
		t.Errorf("p90 = %v, want 9", p)
	}
	if p := percentile(vs, 0.99); p != 10 {
		t.Errorf("p99 = %v, want 10", p)
	}
	if p := percentile([]float64{3}, 0.5); p != 3 {
		t.Errorf("single-element p50 = %v", p)
	}
}
