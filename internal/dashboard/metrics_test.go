package dashboard

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/health"
	"repro/internal/loader"
	"repro/internal/mq"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/views"
	"repro/internal/wfclock"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// loadSynth folds a synthetic trace into arch with the given loader
// options and returns the trace for UUID lookups.
func loadSynth(t *testing.T, arch *archive.Archive, opts loader.Options, cfg synth.Config) *synth.Trace {
	t.Helper()
	tr := synth.Generate(cfg)
	l, err := loader.New(arch, opts)
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
	return tr
}

func get(t *testing.T, srv http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// sampleLine matches a Prometheus text-format sample: metric name,
// optional label set, then a value. The label regexp is greedy so label
// values may themselves contain braces (route patterns like
// "/api/workflow/{uuid}").
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? (\S+)$`)

// TestMetricsEndpoint drives a full in-process stack — synced archive,
// sharded loader, broker with an overflowing queue, a few dashboard
// requests — then scrapes GET /metrics and checks both that the
// exposition parses line by line and that each instrumented layer shows
// up under its published metric name.
func TestMetricsEndpoint(t *testing.T) {
	arch, err := archive.OpenDir(filepath.Join(t.TempDir(), "metrics"), relstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	arch.Store().SetSync(true) // make the load exercise WAL fsyncs

	loadSynth(t, arch, loader.Options{Shards: 4, BatchSize: 64},
		synth.Config{Seed: 7, Jobs: 24, Hosts: 3})

	broker := mq.NewBroker()
	if _, err := broker.DeclareQueue("tiny", mq.QueueOpts{Durable: true, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if err := broker.Bind("tiny", "stampede.#"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // capacity 1, no consumer: 2 of these drop
		broker.Publish("stampede.xwf.start", []byte("x=1"))
	}

	// A health engine over the same stack: its families must join the
	// exposition, and its endpoints must answer on the dashboard mux.
	clk := wfclock.NewManual(time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC))
	eng := health.New(health.Config{Clock: clk, Every: time.Second})
	defer eng.Close()
	eng.RegisterStandard(health.Sources{
		Store: arch.Store(), Broker: broker,
		FreshnessLag: func() (float64, bool) { return 0, true },
	})
	if _, err := eng.AddObjectives(health.DefaultObjectives()...); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	eng.Tick()

	srv := New(query.New(arch))
	srv.SetBus(broker)
	srv.SetHealth(eng)
	if rec := get(t, srv, "/api/workflows"); rec.Code != http.StatusOK {
		t.Fatalf("GET /api/workflows = %d", rec.Code)
	}
	if rec := get(t, srv, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", rec.Code)
	}
	if rec := get(t, srv, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("GET /readyz = %d (engine is clean)", rec.Code)
	}
	if rec := get(t, srv, "/api/alerts"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "objectives") {
		t.Fatalf("GET /api/alerts = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := get(t, srv, "/api/buildinfo"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "go_version") {
		t.Fatalf("GET /api/buildinfo = %d: %s", rec.Code, rec.Body.String())
	}
	index := get(t, srv, "/")
	if index.Code != http.StatusOK {
		t.Fatalf("GET / = %d", index.Code)
	}
	if body := index.Body.String(); !strings.Contains(body, "dropped") {
		t.Errorf("status page does not surface broker drops:\n%s", body)
	}

	rec := get(t, srv, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, telemetry.ContentType)
	}
	body := rec.Body.String()

	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		if _, err := strconv.ParseFloat(m[2], 64); err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
	}

	for _, name := range []string{
		"stampede_loader_shard_queue_depth{shard=\"0\"}",
		"stampede_loader_shard_queue_high_water{shard=",
		"stampede_loader_shard_applied_total{shard=",
		"stampede_loader_commits_total{shard=\"0\",reason=\"full\"}",
		"stampede_loader_commits_total{shard=\"0\",reason=\"idle\"}",
		"stampede_loader_commits_total{shard=\"0\",reason=\"timer\"}",
		"stampede_loader_commits_total{shard=\"0\",reason=\"drain\"}",
		"stampede_loader_syncs_total{shard=\"0\"}",
		"stampede_loader_flush_seconds_bucket{shard=\"0\",le=",
		"stampede_loader_batch_size_bucket{le=",
		"stampede_loader_events_read_total",
		"stampede_relstore_wal_fsyncs_total{partition=\"0\"}",
		"stampede_relstore_wal_fsync_seconds_bucket{partition=\"0\",le=",
		"stampede_relstore_wal_flushes_total{partition=",
		"stampede_mq_published_total",
		"stampede_mq_routed_total",
		"stampede_mq_dropped_total",
		"stampede_mq_queue_depth{queue=\"tiny\"}",
		"stampede_archive_events_applied_total",
		"stampede_archive_rows{table=",
		"stampede_loader_event_pool_hits_total",
		"stampede_loader_event_pool_misses_total",
		"stampede_loader_event_pool_returns_total",
		"stampede_trace_stage_seconds_bucket{stage=\"commit\",le=",
		"stampede_trace_spans_total",
		"stampede_archive_freshness_seconds{partition=",
		"stampede_http_requests_total{route=\"/api/workflows\"}",
		"stampede_http_request_seconds_bucket{route=\"/api/workflows\",le=",
		"stampede_health_evals_total",
		"stampede_health_ready",
		"stampede_health_bundles_total",
		"stampede_health_signal{signal=\"apply_p99_seconds\"}",
		"stampede_health_signal{signal=\"checkpoint_age_seconds\"}",
		"stampede_health_burn_rate{slo=\"ingest-freshness\",window=\"fast\"}",
		"stampede_health_burn_rate{slo=\"mq-drop-rate\",window=\"slow\"}",
		"stampede_alerts_firing",
		"stampede_alerts_pending",
		"stampede_alerts_transitions_total{state=\"firing\"}",
		"stampede_alerts_transitions_total{state=\"resolved\"}",
		"stampede_views_anomaly_alerts_total",
		"stampede_views_flushes_total",
		"stampede_views_flush_busy_seconds_total",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("exposition missing %s", name)
		}
	}
}

// TestWorkflowsGolden pins the /api/workflows JSON bytes, on both paths:
// the snapshot scan and, with views attached, the views' own encoding. The
// synthetic workload is fully deterministic (fixed seed, fixed default
// start time, sequential loader), so the response bytes are too.
func TestWorkflowsGolden(t *testing.T) {
	for _, withViews := range []bool{false, true} {
		arch := archive.NewInMemory()
		defer arch.Close()
		opts := loader.Options{}
		var v *views.Views
		if withViews {
			v = views.New(views.Options{})
			defer v.Close()
			opts.Views = v
		}
		loadSynth(t, arch, opts,
			synth.Config{Seed: 42, Jobs: 12, SubWorkflows: 2, Hosts: 2, SlotsPerHost: 2})

		srv := New(query.New(arch))
		if withViews {
			srv.SetViews(v)
		}
		rec := get(t, srv, "/api/workflows")
		if rec.Code != http.StatusOK {
			t.Fatalf("views %v: GET /api/workflows = %d", withViews, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("views %v: Content-Type = %q", withViews, ct)
		}
		golden(t, "workflows.golden", rec.Body.String())
	}
}
