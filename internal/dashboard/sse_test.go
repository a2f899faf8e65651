package dashboard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/health"
	"repro/internal/loader"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/views"
	"repro/internal/wfclock"
)

// sseClient consumes one SSE stream and applies the protocol the way a
// real dashboard client would: "snapshot" and "resync" replace the whole
// table, "delta" upserts one row. Its applied state is what the churn
// test compares against a fresh view rebuild.
type sseClient struct {
	mu        sync.Mutex
	state     map[string]views.WorkflowDelta
	snapshots int
}

func (c *sseClient) run(ctx context.Context, hc *http.Client, url string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return
	}
	resp, err := hc.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			c.apply(event, []byte(data))
		}
	}
}

func (c *sseClient) apply(event string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch event {
	case "snapshot", "resync":
		var list []views.WorkflowDelta
		if err := json.Unmarshal(data, &list); err != nil {
			return
		}
		c.state = make(map[string]views.WorkflowDelta, len(list))
		for _, d := range list {
			c.state[d.UUID] = d
		}
		c.snapshots++
	case "delta":
		var d views.WorkflowDelta
		if err := json.Unmarshal(data, &d); err != nil {
			return
		}
		if c.state == nil {
			c.state = make(map[string]views.WorkflowDelta)
		}
		c.state[d.UUID] = d
	}
}

// canonical renders applied state keyed by uuid with the change sequence
// zeroed (deltas observed mid-stream carry intermediate seq values).
func (c *sseClient) canonical(t *testing.T) map[string]string {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.state))
	for uuid, d := range c.state {
		d.Seq = 0
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		out[uuid] = string(b)
	}
	return out
}

func canonicalView(t *testing.T, v *views.Views) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, d := range v.Workflows() {
		d.Seq = 0
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		out[d.UUID] = string(b)
	}
	return out
}

// trickleReader throttles a stream so a load spans real time and SSE
// churn genuinely overlaps ingest.
type trickleReader struct {
	r     io.Reader
	chunk int
	delay time.Duration
}

func (tr *trickleReader) Read(p []byte) (int, error) {
	if len(p) > tr.chunk {
		p = p[:tr.chunk]
	}
	n, err := tr.r.Read(p)
	time.Sleep(tr.delay)
	return n, err
}

// TestSSEChurnUnderLoad is the subscriber-churn test: clients connect and
// disconnect mid-stream while a sharded loader ingests, under -race. No
// goroutine may leak, and every surviving client's applied state (initial
// snapshot + deltas + any slow-consumer resyncs) must converge to exactly
// what a fresh view rebuild derives from the committed store.
func TestSSEChurnUnderLoad(t *testing.T) {
	tr := synth.Generate(synth.Config{
		Seed: 21, Jobs: 80, SubWorkflows: 3, Hosts: 4,
		FailureRate: 0.1, MaxRetries: 1, Label: "sse-churn",
	})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	arch := archive.NewInMemoryN(4)
	defer arch.Close()
	// Tiny flush interval so the test exercises coalescing, not just the
	// happy path.
	v := views.New(views.Options{FlushEvery: 2 * time.Millisecond})
	defer v.Close()
	s := New(query.New(arch))
	s.SetViews(v)
	srv := httptest.NewServer(s)
	defer srv.Close()
	ld, err := loader.New(arch, loader.Options{Shards: 4, Views: v})
	if err != nil {
		t.Fatal(err)
	}
	// Keep-alives off so a closed client leaves no idle-connection
	// goroutines behind to confuse the leak check.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	before := runtime.NumGoroutine()

	const survivors, churners = 4, 12
	surv := make([]*sseClient, survivors)
	survCtx, survCancel := context.WithCancel(context.Background())
	defer survCancel()
	var wg sync.WaitGroup
	for i := range surv {
		surv[i] = &sseClient{}
		wg.Add(1)
		go func(c *sseClient) {
			defer wg.Done()
			c.run(survCtx, hc, srv.URL+"/api/stream/workflows")
		}(surv[i])
	}
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		var cwg sync.WaitGroup
		for i := 0; i < churners; i++ {
			cwg.Add(1)
			go func(i int) {
				defer cwg.Done()
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(i+1)*3*time.Millisecond)
				defer cancel()
				(&sseClient{}).run(ctx, hc, srv.URL+"/api/stream/workflows")
			}(i)
			time.Sleep(time.Millisecond)
		}
		cwg.Wait()
	}()

	if _, err := ld.LoadReader(&trickleReader{r: &buf, chunk: 16 << 10, delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	<-churnDone
	v.FlushNow()

	rebuilt := views.New(views.Options{})
	sn := arch.Snapshot()
	err = rebuilt.BuildFromSnapshot(sn)
	sn.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalView(t, rebuilt)
	rebuilt.Close()

	// Survivors converge: published deltas are in flight, so poll.
	deadline := time.Now().Add(10 * time.Second)
	for i, c := range surv {
		for !maps.Equal(c.canonical(t), want) {
			if time.Now().After(deadline) {
				got := c.canonical(t)
				t.Fatalf("survivor %d never converged: %d workflows applied, want %d\n got  %v\n want %v",
					i, len(got), len(want), got, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if c.snapshots == 0 {
			t.Errorf("survivor %d never received a snapshot", i)
		}
	}
	survCancel()
	wg.Wait()

	// Goroutine settle: handler and connection goroutines unwind
	// asynchronously after the clients drop.
	deadline = time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after churn, want <= %d (leak)", n, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scrapeGauge pulls one un-labeled gauge value off GET /metrics.
func scrapeGauge(t *testing.T, base, name string) float64 {
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
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				t.Fatalf("bad gauge value %q: %v", v, err)
			}
			return f
		}
	}
	t.Fatalf("%s not in exposition", name)
	return 0
}

// TestStreamHoldsNoSnapshot is the regression test for the long-lived
// connection fix: an SSE stream held open across loads must not pin a
// store snapshot, so stampede_relstore_snapshot_oldest_age_seconds stays
// bounded (a pinned snapshot's age would track the connection's age).
func TestStreamHoldsNoSnapshot(t *testing.T) {
	arch := archive.NewInMemory()
	defer arch.Close()
	v := views.New(views.Options{FlushEvery: time.Millisecond})
	defer v.Close()
	s := New(query.New(arch))
	s.SetViews(v)
	srv := httptest.NewServer(s)
	defer srv.Close()
	ld, err := loader.New(arch, loader.Options{Views: v})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/api/stream/workflows", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read through the initial snapshot frame so the handler is live.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() && sc.Text() != "" {
	}

	// Keep the stream open well past any sane request latency, loading as
	// we go; a snapshot pinned at connect time would age past the bound.
	held := 400 * time.Millisecond
	start := time.Now()
	for time.Since(start) < held {
		tr := synth.Generate(synth.Config{Seed: 31 + int64(time.Since(start)), Jobs: 10})
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ld.LoadReader(&buf); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if age := scrapeGauge(t, srv.URL, "stampede_relstore_snapshot_oldest_age_seconds"); age > held.Seconds()*0.75 {
		t.Fatalf("oldest snapshot age %.3fs under a %.1fs held-open stream: the stream is pinning a snapshot", age, held.Seconds())
	}
}

// TestWorkflowListingFromViewMatchesScan: /api/workflows must return the
// same rows whether served O(delta) from the materialized view or by the
// classic snapshot scan.
func TestWorkflowListingFromViewMatchesScan(t *testing.T) {
	tr := synth.Generate(synth.Config{
		Seed: 41, Jobs: 40, SubWorkflows: 2, Hosts: 3,
		FailureRate: 0.2, MaxRetries: 1, Label: "view-vs-scan",
	})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	arch := archive.NewInMemoryN(2)
	defer arch.Close()
	v := views.New(views.Options{})
	defer v.Close()
	ld, err := loader.New(arch, loader.Options{Shards: 2, Views: v})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ld.LoadReader(&buf); err != nil {
		t.Fatal(err)
	}

	s := New(query.New(arch))
	srv := httptest.NewServer(s)
	defer srv.Close()
	var scan []WorkflowStatus
	getJSON(t, srv.URL+"/api/workflows", &scan)

	s.SetViews(v)
	var fromView []WorkflowStatus
	getJSON(t, srv.URL+"/api/workflows", &fromView)

	byUUID := func(l []WorkflowStatus) { sort.Slice(l, func(i, j int) bool { return l[i].UUID < l[j].UUID }) }
	byUUID(scan)
	byUUID(fromView)
	if len(scan) != len(fromView) {
		t.Fatalf("rows: scan %d vs view %d", len(scan), len(fromView))
	}
	for i := range scan {
		sj, _ := json.Marshal(scan[i])
		vj, _ := json.Marshal(fromView[i])
		if string(sj) != string(vj) {
			t.Errorf("row %d diverges:\n scan %s\n view %s", i, sj, vj)
		}
	}
}

// TestAlertTransitionIsAHealthFrame: a health engine given the dashboard's
// PublishAlert as its OnAlert puts each alert transition on the broadcast
// stream as a "health" event.
func TestAlertTransitionIsAHealthFrame(t *testing.T) {
	v := views.New(views.Options{})
	defer v.Close()
	srv := New(query.New(archive.NewInMemory()))
	srv.SetViews(v)
	eng := health.New(health.Config{OnAlert: srv.PublishAlert})
	defer eng.Close()
	eng.Register("test.breach", func() (float64, bool) { return 1, true })
	if err := eng.AddObjective(health.Objective{Name: "test-slo", Signal: "test.breach", Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}
	srv.SetHealth(eng)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/stream/workflows", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		switch {
		case !ok:
		case event == "snapshot":
			eng.Tick() // subscribed: the breach is a transition now
		case event == "health":
			var a health.Alert
			if err := json.Unmarshal([]byte(data), &a); err != nil || a.SLO != "test-slo" || a.State == "" {
				t.Fatalf("health frame %q: %+v, %v", data, a, err)
			}
			return
		}
	}
	t.Fatalf("stream ended without a health frame: %v", sc.Err())
}

// stallSink is an SSE client on a full socket: it takes the snapshot, and
// every later Write blocks until release is closed.
type stallSink struct {
	hdr     http.Header
	release chan struct{}
	mu      sync.Mutex
	writes  int
	body    bytes.Buffer
}

func (s *stallSink) Header() http.Header { return s.hdr }
func (s *stallSink) WriteHeader(int)     {}
func (s *stallSink) Flush()              {}

func (s *stallSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.writes++
	s.body.Write(p)
	first := s.writes == 1
	s.mu.Unlock()
	if !first {
		<-s.release
	}
	return len(p), nil
}

func (s *stallSink) state() (int, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes, s.body.String()
}

// mqSeries is every stampede_mq_* sample line of the process's exposition.
func mqSeries(t *testing.T) []string {
	t.Helper()
	var b bytes.Buffer
	if err := telemetry.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "stampede_mq_") {
			out = append(out, line)
		}
	}
	return out
}

// TestStalledSubscriberResyncsOffTheBus: an SSE client that stops reading
// while a hundred flushes go out is, once its socket drains, resynced from
// the view, and the frames it missed are counted in the views' own
// dropped-deltas counter. The fan-out is not the ingest bus's business:
// every stampede_mq_* series — routed, dropped, per-queue depth — and the
// health engine's bus drop rate are what they were before it.
func TestStalledSubscriberResyncsOffTheBus(t *testing.T) {
	clk := wfclock.NewManual(time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC))
	eng := health.New(health.Config{Clock: clk})
	defer eng.Close()
	eng.RegisterStandard(health.Sources{})
	eng.Tick()
	mqBefore := mqSeries(t)

	v := views.New(views.Options{FlushEvery: time.Hour})
	defer v.Close()
	srv := New(query.New(archive.NewInMemory()))
	srv.SetViews(v)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "/api/stream/workflows", nil)
	sink := &stallSink{hdr: make(http.Header), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeHTTP(sink, req)
	}()
	dropped0, resyncs0 := v.Stats().Dropped, v.Stats().Resyncs

	// The first flush after the snapshot is the Write the client stalls in;
	// a hundred more go out while it does.
	ts := time.Date(2012, 3, 13, 12, 0, 1, 0, time.UTC)
	flush := func(i int) {
		v.ObserveBatch([]*bp.Event{bp.New(schema.InvEnd, ts).Set(schema.AttrXwfID, "stalled-"+strconv.Itoa(i)).
			Set(schema.AttrJobID, "j").SetInt(schema.AttrJobInstID, 1).SetInt(schema.AttrInvID, 1).SetFloat(schema.AttrDur, 1)})
		v.FlushNow()
	}
	waitFor := func(what string, cond func(writes int, body string) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(sink.state()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				_, body := sink.state()
				t.Fatalf("%s: the client was sent %q", what, body)
			}
		}
	}
	waitFor("snapshot", func(writes int, _ string) bool { return writes == 1 })
	flush(0)
	waitFor("stall", func(writes int, _ string) bool { return writes == 2 })
	for i := 1; i <= 100; i++ {
		flush(i)
	}
	close(sink.release)
	waitFor("resync", func(_ int, body string) bool { return strings.Contains(body, "event: resync\n") })
	cancel()
	<-served

	if _, body := sink.state(); !strings.Contains(body, `"uuid":"stalled-100"`) {
		t.Errorf("the resync does not carry the last workflow flushed: %q", body)
	}
	st := v.Stats()
	if st.Resyncs-resyncs0 != 1 || st.Dropped-dropped0 < 64 {
		t.Errorf("%d resyncs and %d dropped frames counted by the views, want 1 and at least the 64 the log keeps",
			st.Resyncs-resyncs0, st.Dropped-dropped0)
	}
	if mqAfter := mqSeries(t); strings.Join(mqAfter, "\n") != strings.Join(mqBefore, "\n") {
		t.Errorf("SSE fan-out moved the bus's metrics:\n before %q\n after  %q", mqBefore, mqAfter)
	}
	clk.Advance(time.Minute)
	eng.Tick()
	if rate, ok := eng.Signal(health.SigMQDropRate); !ok || rate != 0 {
		t.Errorf("bus drop rate %v (ok %v) after an SSE client was resynced, want 0", rate, ok)
	}
}
