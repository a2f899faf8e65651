package health

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/relstore"
	"repro/internal/trace"
	"repro/internal/wfclock"
)

func TestRecorderRingBounds(t *testing.T) {
	r := newRecorder(wfclock.NewManual(testEpoch), 4)
	for i := 0; i < 10; i++ {
		r.Note("k", "note %d", i)
	}
	notes := r.Notes()
	if len(notes) != 4 {
		t.Fatalf("retained %d notes, want 4", len(notes))
	}
	for i, n := range notes {
		if want := fmt.Sprintf("note %d", 6+i); n.Msg != want {
			t.Fatalf("note[%d] = %q, want %q (oldest-first)", i, n.Msg, want)
		}
	}
}

// TestBundleRoundtrip writes a bundle from a live engine and reads it
// back through the doctor path, checking every section survives.
func TestBundleRoundtrip(t *testing.T) {
	clk := wfclock.NewManual(testEpoch)
	ring := trace.NewRing(64)
	ring.Record(1, trace.StageApply, "wf-1", 100, 200)
	ring.Record(2, trace.StageCommit, "wf-1", 200, 300)

	dir := t.TempDir()
	e := New(Config{Clock: clk, Every: time.Second, Ring: ring, BundleDir: dir})
	defer e.Close()
	// The partition map comes from the store the standard signals watch.
	e.RegisterStandard(Sources{Store: relstore.NewStoreN(2)})

	val := 5.0
	e.Register("sig", func() (float64, bool) { return val, true })
	if err := e.AddObjective(Objective{
		Name: "rt-slo", Signal: "sig", Threshold: 1,
		Budget: 0.5, BurnRate: 1, Fast: 2 * time.Second, Slow: 4 * time.Second,
		For: time.Second, ClearFor: 2 * time.Second, GateReady: true,
	}); err != nil {
		t.Fatal(err)
	}
	e.Recorder().Note("loader", "restart for test")
	tickUntil(t, clk, e, 20, "firing", func() bool { return e.FiringCount() == 1 })

	// The firing transition wrote its bundle into BundleDir.
	id := e.Recent()[len(e.Recent())-1].BundleID
	if id == "" {
		t.Fatal("firing transition carries no bundle id")
	}
	data, err := os.ReadFile(filepath.Join(dir, "bundle-"+id+".tar.gz"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	if b.Meta.Build.GoVersion == "" || b.Meta.Build.Partitions != 2 {
		t.Fatalf("meta build = %+v", b.Meta.Build)
	}
	if b.Meta.Trigger == nil || b.Meta.Trigger.SLO != "rt-slo" {
		t.Fatalf("trigger = %+v", b.Meta.Trigger)
	}
	if len(b.Alerts.Active) != 1 || b.Alerts.Active[0].State != "firing" {
		t.Fatalf("active alerts = %+v", b.Alerts.Active)
	}
	if sv, ok := b.Signals.Signals["sig"]; !ok || !sv.OK || sv.Value != 5 {
		t.Fatalf("signals = %+v", b.Signals.Signals)
	}
	if len(b.Signals.Objectives) != 1 || b.Signals.Objectives[0].State != "firing" {
		t.Fatalf("objective dump = %+v", b.Signals.Objectives)
	}
	breaches := 0
	for _, s := range b.Signals.Objectives[0].Samples {
		if s.Breach {
			breaches++
		}
	}
	if breaches == 0 {
		t.Fatal("bundle lost the breaching samples covering the alert")
	}
	foundNote := false
	for _, n := range b.Notes {
		if strings.Contains(n.Msg, "restart for test") {
			foundNote = true
		}
	}
	if !foundNote {
		t.Fatalf("flight-recorder note missing: %+v", b.Notes)
	}
	stages := map[string]bool{}
	for _, sp := range b.Spans {
		stages[sp.Stage] = true
	}
	if !stages["apply"] || !stages["commit"] {
		t.Fatalf("span stages = %v", stages)
	}
	if len(b.Partitions) != 2 || b.Partitions[1].Partition != 1 {
		t.Fatalf("partitions = %+v", b.Partitions)
	}
	if _, ok := b.MetricValue("stampede_health_evals_total"); !ok {
		t.Fatal("metrics.prom missing health metrics")
	}

	var report bytes.Buffer
	b.Render(&report)
	out := report.String()
	for _, want := range []string{"rt-slo", "firing", "partition 0", "restart for test", "diagnostics bundle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}

	// Content addressing: the id, which names the file, is the archive's
	// truncated hash.
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:8]) != id {
		t.Fatalf("bundle id %q is not the hash of its archive", id)
	}
}

func TestReadBundleRejectsGarbage(t *testing.T) {
	if _, err := ReadBundle(strings.NewReader("not a bundle")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestHTTPEndpoints covers the five endpoints Mount serves end to end,
// including the readyz flip while an alert fires.
func TestHTTPEndpoints(t *testing.T) {
	clk := wfclock.NewManual(testEpoch)
	e := New(Config{Clock: clk, Every: time.Second})
	defer e.Close()
	val := 0.0
	e.Register("sig", func() (float64, bool) { return val, true })
	if err := e.AddObjective(Objective{
		Name: "http-slo", Signal: "sig", Threshold: 1,
		Budget: 0.5, BurnRate: 1, Fast: 2 * time.Second, Slow: 4 * time.Second,
		For: time.Second, ClearFor: 2 * time.Second, GateReady: true,
	}); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	e.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "\"ok\"") {
		t.Fatalf("healthz = %d %s", code, body)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("readyz clean = %d", code)
	}
	if code, body := get("/api/buildinfo"); code != 200 || !strings.Contains(body, "go_version") {
		t.Fatalf("buildinfo = %d %s", code, body)
	}

	val = 5
	tickUntil(t, clk, e, 20, "firing", func() bool { return e.FiringCount() == 1 })
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "http-slo") {
		t.Fatalf("readyz firing = %d %s", code, body)
	}
	if code, body := get("/api/alerts"); code != 200 || !strings.Contains(body, "\"firing\"") {
		t.Fatalf("alerts = %d %s", code, body)
	}

	resp, err := srv.Client().Get(srv.URL + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("X-Bundle-ID") == "" {
		t.Fatalf("bundle fetch = %d, id %q", resp.StatusCode, resp.Header.Get("X-Bundle-ID"))
	}
	b, err := ReadBundle(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Alerts.Active) != 1 {
		t.Fatalf("fetched bundle active = %+v", b.Alerts.Active)
	}

	val = 0
	tickUntil(t, clk, e, 20, "resolved", func() bool { return e.FiringCount() == 0 })
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("readyz after resolve = %d", code)
	}
}
