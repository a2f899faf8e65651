package core

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/mq"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/triana"
	"repro/internal/uuid"
)

func runGraph(t *testing.T, st *Stampede, g *triana.TaskGraph) *triana.StampedeLog {
	t.Helper()
	before := st.Archive().Applied()
	log := triana.NewStampedeLog(st.Appender())
	sched := triana.NewScheduler(g, triana.Options{Mode: triana.SingleStep, Listeners: []triana.Listener{log}})
	if _, err := sched.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := st.WaitLoaded(ctx, before+uint64(log.Appended())); err != nil {
		t.Fatal(err)
	}
	return log
}

func demoGraph() *triana.TaskGraph {
	g := triana.NewTaskGraph("demo")
	a := g.MustAddTask("src", &triana.FuncUnit{UnitName: "src", Fn: func(*triana.ProcessContext) ([]any, error) {
		return []any{1}, nil
	}})
	b := g.MustAddTask("sink", &triana.FuncUnit{UnitName: "sink", Fn: func(*triana.ProcessContext) ([]any, error) {
		return nil, nil
	}})
	_, _ = g.Connect(a, b)
	return g
}

func TestStartRunQueryStop(t *testing.T) {
	st, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	log := runGraph(t, st, demoGraph())

	summary, err := st.Statistics(log.WorkflowUUID(), true)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Jobs.Total != 2 || summary.Jobs.Succeeded != 2 {
		t.Errorf("summary = %+v", summary.Jobs)
	}
	rows, err := st.Breakdown(log.WorkflowUUID(), true)
	if err != nil || len(rows) == 0 {
		t.Errorf("breakdown: %d rows, %v", len(rows), err)
	}
	jobs, err := st.JobsReport(log.WorkflowUUID())
	if err != nil || len(jobs) != 2 {
		t.Errorf("jobs report: %d rows, %v", len(jobs), err)
	}
	rep, err := st.Analyze(log.WorkflowUUID())
	if err != nil || !rep.Healthy() {
		t.Errorf("analyze: %+v, %v", rep, err)
	}
	loadStats, err := st.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if loadStats.Loaded != uint64(log.Appended()) {
		t.Errorf("loaded %d, appended %d", loadStats.Loaded, log.Appended())
	}
	if loadStats.Invalid != 0 {
		t.Errorf("invalid = %d", loadStats.Invalid)
	}
}

// TestPersistentArchiveAcrossRestarts: a node over a store directory
// fsyncs what its loader syncs, and a restart finds it.
func TestPersistentArchiveAcrossRestarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stampede-store")
	st, err := Start(Config{DatabasePath: path})
	if err != nil {
		t.Fatal(err)
	}
	log := runGraph(t, st, demoGraph())
	// The loader syncs within one FlushEvery of the last apply.
	for deadline := time.Now().Add(5 * time.Second); st.Archive().Store().Syncs() == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the durable node made no WAL fsync")
		}
	}
	if _, err := st.Stop(); err != nil {
		t.Fatal(err)
	}

	re, err := Start(Config{DatabasePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Stop()
	summary, err := re.Statistics(log.WorkflowUUID(), true)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Jobs.Total != 2 {
		t.Errorf("persisted jobs = %d", summary.Jobs.Total)
	}
}

func TestDashboardServesLiveArchive(t *testing.T) {
	st, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	runGraph(t, st, demoGraph())
	srv := httptest.NewServer(st.Dashboard())
	defer srv.Close()
	resp, err := httptestGet(srv.URL + "/api/workflows")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) < 10 {
		t.Fatalf("dashboard response too small: %q", resp)
	}

	// The node's health engine is mounted on its dashboard, with the
	// default objectives the store and the bus feed; nothing on the node
	// supplies an ingest freshness lag, so not ingest-freshness.
	alerts, err := httptestGet(srv.URL + "/api/alerts")
	if err != nil || !strings.Contains(alerts, `"mq-drop-rate"`) || !strings.Contains(alerts, `"checkpoint-age"`) ||
		strings.Contains(alerts, `"ingest-freshness"`) {
		t.Fatalf("/api/alerts on the node: %v\n%s", err, alerts)
	}
}

// TestLoneEventReachesTheGlass: with every option at its default, an
// invocation that ends on an otherwise quiet service is a delta frame on a
// dashboard client's stream within 50 ms — nothing on the way waits for a
// batch to fill or a timer to fire. (Under the 500 ms loader tick and the
// 200 ms view tick it took at least 200 ms.) The bound is wall time, so a
// stalled machine gets further tries; one prompt delivery proves the path.
func TestLoneEventReachesTheGlass(t *testing.T) {
	st, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	srv := httptest.NewServer(st.Dashboard())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/api/stream/workflows", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	deltas := make(chan string, 256)
	go func() {
		defer close(deltas)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
		delta := false
		for sc.Scan() {
			switch line := sc.Text(); {
			case strings.HasPrefix(line, "event: "):
				delta = line == "event: delta"
			case delta && strings.HasPrefix(line, "data: "):
				deltas <- line
			}
		}
	}()

	const wf = "0a0b0c0d-1111-4222-8333-444455556666"
	ts := time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC)
	mk := func(typ string) *bp.Event { return bp.New(typ, ts).Set(schema.AttrXwfID, wf) }
	ji := func(typ string) *bp.Event {
		return mk(typ).Set(schema.AttrJobID, "job0").SetInt(schema.AttrJobInstID, 1)
	}
	app := st.Appender()
	for _, ev := range []*bp.Event{
		mk(schema.WfPlan).Set("submit.hostname", "desktop").Set(schema.AttrRootXwf, wf),
		mk(schema.XwfStart).SetInt("restart_count", 0),
		mk(schema.JobInfo).Set(schema.AttrJobID, "job0").Set("type_desc", "compute").SetInt("clustered", 0).
			SetInt("max_retries", 0).Set(schema.AttrExecutable, "/bin/x").SetInt("task_count", 1),
		ji(schema.SubmitStart),
		ji(schema.MainStart),
	} {
		_ = app.Append(ev)
	}
	// quiet lets two view intervals pass, so whatever is dirty has been
	// published and the stream is idle.
	quiet := func() {
		time.Sleep(450 * time.Millisecond)
		for len(deltas) > 0 {
			<-deltas
		}
	}
	var took []time.Duration
	for inv := int64(1); inv <= 5; inv++ {
		quiet()
		want := fmt.Sprintf(`"invocations":%d,`, inv)
		sent := time.Now()
		_ = app.Append(ji(schema.InvEnd).SetInt(schema.AttrInvID, inv).
			Set(schema.AttrStartTime, ts.Format(bp.TimeFormat)).SetFloat(schema.AttrDur, 1).
			SetInt(schema.AttrExitcode, 0).Set(schema.AttrTransform, "x"))
		for got := false; !got; {
			select {
			case d, ok := <-deltas:
				if !ok {
					t.Fatal("stream closed")
				}
				got = strings.Contains(d, want)
			case <-time.After(5 * time.Second):
				t.Fatalf("no delta frame with %s", want)
			}
		}
		took = append(took, time.Since(sent))
		t.Logf("inv.end %d on the glass after %v", inv, took[len(took)-1])
		if took[len(took)-1] <= 50*time.Millisecond {
			return
		}
	}
	t.Fatalf("a lone inv.end took %v to reach the glass, want 50ms or less", took)
}

// TestAppendRecordsEmissionSpan: an event appended to a Start pipeline
// leaves its emission span in the process-wide ring, so its trace begins
// at the engine rather than at the bus. The event is one the default
// sampling traces, with a body unique to the run.
func TestAppendRecordsEmissionSpan(t *testing.T) {
	st, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	var ev *bp.Event
	var id uint64
	for i := 0; id == 0; i++ {
		if i == 1<<16 {
			t.Fatalf("no sampled event in %d tries at 1 in %d", i, trace.SampleEvery())
		}
		wf := uuid.New().String()
		ev = bp.New(schema.WfPlan, time.Now().UTC()).Set(schema.AttrXwfID, wf).
			Set("submit.hostname", "desktop").Set(schema.AttrRootXwf, wf)
		id = trace.Sample([]byte(ev.Format()))
	}
	if err := st.Appender().Append(ev); err != nil {
		t.Fatal(err)
	}
	for _, sp := range trace.Default().Spans() {
		if sp.ID == id && sp.Stage == trace.StageEmit {
			if want := ev.Get(schema.AttrXwfID); sp.Label != want {
				t.Fatalf("emission span labelled %q, want the workflow %s", sp.Label, want)
			}
			return
		}
	}
	t.Fatalf("no %s span for trace %x in the ring", trace.StageEmit, id)
}

func TestUnknownWorkflowErrors(t *testing.T) {
	st, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if _, err := st.Statistics("00000000-0000-0000-0000-000000000000", true); err == nil {
		t.Error("statistics for unknown workflow succeeded")
	}
	if _, err := st.Analyze("00000000-0000-0000-0000-000000000000"); err == nil {
		t.Error("analyze for unknown workflow succeeded")
	}
}

func TestTwoEnginesOneArchive(t *testing.T) {
	// The paper's headline: independently developed engines sharing one
	// monitoring infrastructure. Run two separate Triana graphs (standing
	// in for separate engine processes) into the same service and check
	// both appear.
	st, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	log1 := runGraph(t, st, demoGraph())
	log2 := runGraph(t, st, demoGraph())
	if log1.WorkflowUUID() == log2.WorkflowUUID() {
		t.Fatal("runs share a uuid")
	}
	wfs, err := st.Query().Workflows()
	if err != nil || len(wfs) != 2 {
		t.Fatalf("workflows = %d, %v", len(wfs), err)
	}
	if n, _ := st.Archive().Store().Count(archive.TJobInstance); n != 4 {
		t.Errorf("instances = %d", n)
	}
}

func TestServeTCPRemoteEngine(t *testing.T) {
	// Full remote deployment: the engine publishes over TCP to the
	// service's bus; the loader consumes it into the archive.
	st, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	addr, stop, err := st.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	client, err := mq.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	wfLog := triana.NewStampedeLog(&triana.ClientAppender{Client: client})
	sched := triana.NewScheduler(demoGraph(), triana.Options{
		Mode: triana.SingleStep, Listeners: []triana.Listener{wfLog},
	})
	if _, err := sched.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Events may still be in TCP flight when the engine returns, so wait
	// on the explicit count (WaitQuiesced only covers events that have
	// already reached the bus).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := st.WaitLoaded(ctx, uint64(wfLog.Appended())); err != nil {
		t.Fatal(err)
	}
	summary, err := st.Statistics(wfLog.WorkflowUUID(), true)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Jobs.Succeeded != 2 {
		t.Fatalf("summary over TCP = %+v", summary.Jobs)
	}
}

// TestWaitQuiescedSettlesRejects: a lenient node that refused a malformed
// line and an event of an unknown type is quiesced once its valid events
// are applied; waiting for the two refused would take the whole deadline.
func TestWaitQuiescedSettlesRejects(t *testing.T) {
	st, err := Start(Config{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	st.Broker().Publish("stampede.xwf.start", []byte("not a bp line"))
	unknown := bp.New("stampede.no.such.event", time.Now()).Set(schema.AttrXwfID, uuid.New().String())
	st.Broker().Publish(unknown.Type, []byte(unknown.Format()))
	log := triana.NewStampedeLog(st.Appender())
	sched := triana.NewScheduler(demoGraph(), triana.Options{Mode: triana.SingleStep, Listeners: []triana.Listener{log}})
	if _, err := sched.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := st.WaitQuiesced(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := st.Archive().Applied(), uint64(log.Appended()); got != want {
		t.Errorf("quiesced with %d of %d valid events applied", got, want)
	}
	if got := st.ldr.Rejected(); got != 2 {
		t.Errorf("loader rejected %d events, want 2", got)
	}
}

// TestInMemoryNodeHonoursShards: an in-memory node has one partition per
// shard, so its workflows spread over every shard instead of all feeding
// shard 0 through a single partition.
func TestInMemoryNodeHonoursShards(t *testing.T) {
	st, err := Start(Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		runGraph(t, st, demoGraph())
	}
	if n := st.Archive().Store().NumPartitions(); n != 4 {
		t.Errorf("in-memory node with 4 shards has %d partitions", n)
	}
	stats, err := st.Stop()
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, sh := range stats.Shards {
		if sh.Applied > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("16 workflows applied by %d of 4 shards: %+v", busy, stats.Shards)
	}
}

func TestWaitQuiescedTimesOut(t *testing.T) {
	st, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// An unreachable target with a dead context must fail promptly.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := st.WaitLoaded(ctx, 10); err == nil {
		t.Error("WaitLoaded with dead context succeeded")
	}
	st.Stop()
}

func httptestGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), nil
}

// Archive exposes the relational archive.
func (s *Stampede) Archive() *archive.Archive { return s.arch }

// Query returns the query interface over the live archive.
func (s *Stampede) Query() *query.QI { return s.qi }
