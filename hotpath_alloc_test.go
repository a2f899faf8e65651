//go:build !race

// Allocation budgets for the ingest hot path, enforced. The race detector
// changes allocation behaviour (it instruments sync.Pool and inflates
// counts), so these tests are excluded from -race runs; the plain CI pass
// runs them.

package repro

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/dashboard"
	"repro/internal/eventlog"
	"repro/internal/experiments"
	"repro/internal/health"
	"repro/internal/loader"
	"repro/internal/mq"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/triana"
	"repro/internal/uuid"
	"repro/internal/views"
	"repro/internal/wfclock"
)

// The ceilings are enforced upper bounds, not targets: measured values sit
// at 1 alloc per pooled parse (the backing string) and 1.15 allocs per
// loaded event end to end, 1.4 with views attached (the seed path measured
// ~44, map-based rows 7.9, relstore's unique keys 1.9). What is left per
// event: that backing string, the interned key string plus its map entry
// for a row that takes a never-seen index key, and amortised shares of the
// row, posting-node and bucket slabs and of the archive's identity maps
// growing.
// The headroom covers GC timing and map-growth jitter; a regression that
// re-introduces per-row maps, per-event boxing or per-node chain
// allocations blows well past it.
//
// Slab-allocated rows and nodes are invisible to a count — 256 of them are
// one malloc — so TestLoadAllocCeiling also bounds heap bytes per event. On
// its trace the load measures ≈ 509 bytes/event: ≈ 210 of backing string,
// ≈ 185 of rows (a 56-byte header plus 8 bytes a word and 16 a string
// slot; a job instance's four updates are four full versions), the rest
// index postings, key-map growth, the archive's identity maps and row
// pages. Map-based rows measured 1,038–1,053, relstore's unique keys and
// five more indexes ≈ 565.
const (
	maxAllocsPerParse = 3
	maxAllocsPerEvent = 6
	maxBytesPerEvent  = 600
)

// TestParseBytesAllocCeiling bounds the pooled zero-copy parse: steady
// state is one allocation per line (the retained backing string).
func TestParseBytesAllocCeiling(t *testing.T) {
	line := []byte(bp.New(schema.InvEnd, time.Now()).
		Set(schema.AttrXwfID, uuid.New().String()).
		Set(schema.AttrJobID, "processing.exec0").
		SetInt(schema.AttrJobInstID, 1).
		SetInt(schema.AttrInvID, 1).
		Set(schema.AttrStartTime, "2012-03-13T12:35:38.000000Z").
		SetFloat(schema.AttrDur, 51.0).
		SetInt(schema.AttrExitcode, 0).
		Set(schema.AttrTransform, "dart-exec").
		Format())
	// Warm: intern the line's keys and prime the event pool.
	ev, err := bp.ParseBytes(line)
	if err != nil {
		t.Fatal(err)
	}
	bp.ReleaseEvent(ev)

	avg := testing.AllocsPerRun(1000, func() {
		ev, err := bp.ParseBytes(line)
		if err != nil {
			t.Fatal(err)
		}
		bp.ReleaseEvent(ev)
	})
	t.Logf("ParseBytes: %.2f allocs/line (ceiling %d)", avg, maxAllocsPerParse)
	if avg > maxAllocsPerParse {
		t.Errorf("ParseBytes allocates %.2f/line, ceiling %d", avg, maxAllocsPerParse)
	}
}

// TestLoadAllocCeiling bounds the whole hot path — parse, validate,
// archive apply, relstore insert, WAL-less commit — in allocations per
// loaded event, measured as the process MemStats mallocs delta across a
// full load of a synthetic trace.
func TestLoadAllocCeiling(t *testing.T) {
	trace := experiments.TraceFor(2000)
	load := func() uint64 {
		a := archive.NewInMemory()
		l, err := loader.New(a, loader.Options{BatchSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		st, err := l.LoadReader(bytes.NewReader(trace))
		if err != nil {
			t.Fatal(err)
		}
		return st.Loaded
	}
	load() // warm: intern table, schema validator singletons, event pool

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	loaded := load()
	runtime.ReadMemStats(&ms1)
	if loaded == 0 {
		t.Fatal("nothing loaded")
	}
	perEvent := float64(ms1.Mallocs-ms0.Mallocs) / float64(loaded)
	bytesPerEvent := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(loaded)
	t.Logf("load: %.2f allocs/event, %.0f heap bytes/event over %d events (ceilings %d, %d)",
		perEvent, bytesPerEvent, loaded, maxAllocsPerEvent, maxBytesPerEvent)
	if perEvent > maxAllocsPerEvent {
		t.Errorf("hot path allocates %.2f/event, ceiling %d", perEvent, maxAllocsPerEvent)
	}
	if bytesPerEvent > maxBytesPerEvent {
		t.Errorf("hot path allocates %.0f heap bytes/event, ceiling %d", bytesPerEvent, maxBytesPerEvent)
	}
}

// TestLoadAllocCeilingDurable pins what the WAL may add to that path: the
// same stream into a 4-partition store directory (fsync off — allocations,
// not disk time, are measured) must cost at most one allocation per event
// more than into the same partitions in memory. A WAL record is framed
// into its writer's reused scratch; the JSON records this replaced cost
// about twenty per event.
func TestLoadAllocCeilingDurable(t *testing.T) {
	trace := experiments.TraceFor(2000)
	const parts = 4
	perEvent := func(open func() *archive.Archive) float64 {
		load := func() (uint64, uint64) {
			a := open()
			defer a.Close()
			l, err := loader.New(a, loader.Options{BatchSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			st, err := l.LoadReader(bytes.NewReader(trace))
			runtime.ReadMemStats(&ms1)
			if err != nil || st.Loaded == 0 {
				t.Fatalf("loaded %d events: %v", st.Loaded, err)
			}
			return ms1.Mallocs - ms0.Mallocs, st.Loaded
		}
		load() // warm: intern table, schema validator singletons, event pool
		mallocs, loaded := load()
		return float64(mallocs) / float64(loaded)
	}
	memory := perEvent(func() *archive.Archive { return archive.NewInMemoryN(parts) })
	durable := perEvent(func() *archive.Archive {
		a, err := archive.OpenDir(t.TempDir(), relstore.Options{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		return a
	})
	t.Logf("load: %.2f allocs/event in memory, %.2f durable", memory, durable)
	if durable > memory+1 {
		t.Errorf("the WAL adds %.2f allocs/event (%.2f durable vs %.2f in memory), ceiling 1", durable-memory, durable, memory)
	}
}

// TestLoadAllocCeilingEventlog holds the same end-to-end budget with the
// event-log tap enabled: teeing every raw line into the append-only log
// must not add a single allocation per event to the hot path (the frame
// encodes into the log's reused flush buffer).
func TestLoadAllocCeilingEventlog(t *testing.T) {
	trace := experiments.TraceFor(2000)
	dir := t.TempDir()
	load := func(sub string) uint64 {
		lg, err := eventlog.Open(dir+"/"+sub, eventlog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer lg.Close()
		a := archive.NewInMemory()
		l, err := loader.New(a, loader.Options{
			BatchSize: 512,
			Tap: func(line []byte) error {
				_, terr := lg.Append(line)
				return terr
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := l.LoadReader(bytes.NewReader(trace))
		if err != nil {
			t.Fatal(err)
		}
		if lg.Appends() != st.Read+st.Malformed {
			t.Fatalf("tap appended %d lines, loader read %d + malformed %d",
				lg.Appends(), st.Read, st.Malformed)
		}
		return st.Loaded
	}
	load("warm")

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	loaded := load("measured")
	runtime.ReadMemStats(&ms1)
	if loaded == 0 {
		t.Fatal("nothing loaded")
	}
	perEvent := float64(ms1.Mallocs-ms0.Mallocs) / float64(loaded)
	t.Logf("load+eventlog: %.2f allocs/event over %d events (ceiling %d)", perEvent, loaded, maxAllocsPerEvent)
	if perEvent > maxAllocsPerEvent {
		t.Errorf("hot path with eventlog tap allocates %.2f/event, ceiling %d", perEvent, maxAllocsPerEvent)
	}
}

// TestLoadAllocCeilingViews holds the same end-to-end budget with the
// materialized-view layer attached: incremental view maintenance runs in
// the apply path post-commit, so its steady-state cost — fixed job-state
// arrays, memoised stripe lookups, P² estimators with constant marker
// state — must fit inside the existing per-event ceiling, not on top of
// it.
func TestLoadAllocCeilingViews(t *testing.T) {
	trace := experiments.TraceFor(2000)
	load := func() uint64 {
		v := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0))})
		defer v.Close()
		a := archive.NewInMemory()
		l, err := loader.New(a, loader.Options{BatchSize: 512, Views: v})
		if err != nil {
			t.Fatal(err)
		}
		st, err := l.LoadReader(bytes.NewReader(trace))
		if err != nil {
			t.Fatal(err)
		}
		return st.Loaded
	}
	load() // warm: intern table, schema singletons, event pool, view maps

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	loaded := load()
	runtime.ReadMemStats(&ms1)
	if loaded == 0 {
		t.Fatal("nothing loaded")
	}
	perEvent := float64(ms1.Mallocs-ms0.Mallocs) / float64(loaded)
	t.Logf("load+views: %.2f allocs/event over %d events (ceiling %d)", perEvent, loaded, maxAllocsPerEvent)
	if perEvent > maxAllocsPerEvent {
		t.Errorf("hot path with views allocates %.2f/event, ceiling %d", perEvent, maxAllocsPerEvent)
	}
}

// TestLoadAllocCeilingHealth holds the same end-to-end budget with a live
// health engine ticking on the wall clock throughout the load: SLO
// evaluation reads scrape-side registry state and cached atomics only, so
// attaching it must leave the per-event allocation ceiling intact. The
// engine's own tick allocations amortize across the load (a 10ms tick
// over a ~2000-event run is a rounding error against the ceiling); what
// this guards is any per-event cost leaking into the apply path.
func TestLoadAllocCeilingHealth(t *testing.T) {
	tr := experiments.TraceFor(2000)
	load := func() uint64 {
		v := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0))})
		defer v.Close()
		a := archive.NewInMemory()
		eng := health.Standard(health.Config{Every: 10 * time.Millisecond}, health.Sources{Store: a.Store()})
		defer eng.Close()
		l, err := loader.New(a, loader.Options{BatchSize: 512, Views: v})
		if err != nil {
			t.Fatal(err)
		}
		st, err := l.LoadReader(bytes.NewReader(tr))
		if err != nil {
			t.Fatal(err)
		}
		return st.Loaded
	}
	load() // warm: intern table, schema singletons, event pool, signal baselines

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	loaded := load()
	runtime.ReadMemStats(&ms1)
	if loaded == 0 {
		t.Fatal("nothing loaded")
	}
	perEvent := float64(ms1.Mallocs-ms0.Mallocs) / float64(loaded)
	t.Logf("load+health: %.2f allocs/event over %d events (ceiling %d)", perEvent, loaded, maxAllocsPerEvent)
	if perEvent > maxAllocsPerEvent {
		t.Errorf("hot path with health engine allocates %.2f/event, ceiling %d", perEvent, maxAllocsPerEvent)
	}
}

// TestClientAppenderAllocCeiling bounds what emitting costs an engine
// that publishes over TCP: the event is encoded into pooled scratch and
// PublishAsync copies the line into the client's frame buffer, so an
// event allocates nothing, amortised. The peer only drains the socket, so
// every allocation counted is the engine's.
func TestClientAppenderAllocCeiling(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(io.Discard, c)
	}()
	cl, err := mq.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	app := &triana.ClientAppender{Client: cl}
	ev := bp.New(schema.InvEnd, time.Date(2012, 3, 13, 12, 35, 38, 123456000, time.UTC)).
		Set(schema.AttrXwfID, "ea17e8ac-02ac-4909-b5e3-16e367392556").
		Set(schema.AttrJobID, "processing.exec0").
		SetInt(schema.AttrJobInstID, 1).
		SetFloat(schema.AttrDur, 51.0).
		Set(schema.AttrTransform, "dart-exec")
	for i := 0; i < 64; i++ { // warm: the line pool and the frame buffer
		if err := app.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		if err := app.Append(ev); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("ClientAppender.Append allocates %.2f/event, want 0", avg)
	}
}

// TestUnsampledTraceAllocFree pins the tracing tax on unsampled events at
// zero allocations: with tracing enabled, an event whose line hash misses
// the sampling modulus must cost exactly what it costs with tracing off —
// one hash and an atomic load, nothing on the heap.
func TestUnsampledTraceAllocFree(t *testing.T) {
	line := []byte(bp.New(schema.InvEnd, time.Now()).
		Set(schema.AttrXwfID, uuid.New().String()).
		SetInt(schema.AttrJobInstID, 1).
		Format())
	if trace.Sample(line) != 0 {
		t.Skip("line happens to be sampled at the default rate; the budget applies to the unsampled path")
	}
	avg := testing.AllocsPerRun(1000, func() {
		if trace.Sample(line) != 0 {
			t.Fatal("sampling decision changed between runs")
		}
	})
	if avg != 0 {
		t.Errorf("unsampled Sample() allocates %.2f/line, want 0", avg)
	}
}

// TestFlushAllocCeiling bounds the views publisher: in steady state a flush
// of 1,000 dirty workflows allocates at most a tenth of an object per dirty
// workflow — the shared frame and the log's next wake channel, nothing per
// workflow (the reflected marshal of a per-workflow struct and map this
// replaced cost about twenty) — and nothing per subscriber: with 1,000
// broadcast subscribers parked in Wait and reading every frame, a flush
// allocates what it does with one, within two objects.
func TestFlushAllocCeiling(t *testing.T) {
	one, thousand := flushAllocs(t, 1), flushAllocs(t, 1000)
	t.Logf("FlushNow: %d allocations with 1 subscriber, %d with 1,000", one, thousand)
	if thousand > one+2 {
		t.Errorf("FlushNow allocates %d objects for 1,000 subscribers and %d for one: the fan-out costs the flush", thousand, one)
	}
}

// frameCounter counts the frames a subscriber writes: one Write each.
type frameCounter struct{ n *atomic.Int64 }

func (c frameCounter) Write(p []byte) (int, error) { c.n.Add(1); return len(p), nil }

// flushAllocs returns the most FlushNow allocated in ten steady rounds of
// 1,000 dirty workflows, with subs broadcast subscribers each reading every
// frame and caught up before the next round starts.
func flushAllocs(t *testing.T, subs int) uint64 {
	const workflows = 1000
	// On one P the subscribers a flush wakes run after it, so MemStats
	// counts FlushNow's allocations, not the runtime's on other Ps.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	v := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0)), FlushEvery: time.Hour})
	defer v.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	var written atomic.Int64
	for i := 0; i < subs; i++ {
		sub := v.Subscribe("")
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Close()
			for sub.Wait(ctx) {
				sub.WriteTo(frameCounter{&written})
			}
		}()
	}
	ts := time.Date(2012, 3, 13, 12, 35, 38, 0, time.UTC)
	// One batch touches every workflow: a job state, and an invocation with
	// a duration, so each delta carries a job_states object and, from the
	// fifth round on, quantile estimates past their exact phase.
	batch := make([]*bp.Event, 0, 2*workflows)
	for i := 0; i < workflows; i++ {
		id := uuid.New().String()
		batch = append(batch,
			bp.New(schema.SubmitStart, ts).Set(schema.AttrXwfID, id).Set(schema.AttrJobID, "j").SetInt(schema.AttrJobInstID, 1),
			bp.New(schema.InvEnd, ts).Set(schema.AttrXwfID, id).Set(schema.AttrJobID, "j").SetInt(schema.AttrJobInstID, 1).
				SetFloat(schema.AttrDur, 1.5+float64(i)/7))
	}
	// round dirties every workflow, returns what flushing them allocated and
	// waits for every subscriber to have written the frame. The first
	// round's dirt may be taken by the publisher, which then rests for good
	// on the still clock: one frame a round either way.
	rounds := int64(0)
	round := func() (mallocs uint64, flushed int) {
		v.ObserveBatch(batch)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		flushed = v.FlushNow()
		runtime.ReadMemStats(&ms1)
		rounds++
		for deadline := time.Now().Add(10 * time.Second); written.Load() < rounds*int64(subs); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d subscribers wrote %d frames in %d rounds", subs, written.Load(), rounds)
			}
		}
		return ms1.Mallocs - ms0.Mallocs, flushed
	}
	for i := 0; i < 6; i++ { // warm: views created, frame size learnt
		round()
	}
	most := uint64(0)
	for i := 0; i < 10; i++ {
		mallocs, flushed := round()
		if flushed != workflows {
			t.Fatalf("round %d flushed %d deltas, want %d", i, flushed, workflows)
		}
		if float64(mallocs) > 0.1*workflows {
			t.Errorf("round %d, %d subscribers: FlushNow allocated %d objects for %d dirty workflows, ceiling 0.1 each", i, subs, mallocs, flushed)
		}
		most = max(most, mallocs)
	}
	return most
}

// TestListRequestAllocCeiling is the O(1) ceiling on the view-backed
// listing: a GET /api/workflows handler call copies each row the views
// keep encoded into a pooled buffer, so it allocates the same few objects
// (the request's snapshot pin, its Content-Type header) over 1,000
// workflows as over 32.
func TestListRequestAllocCeiling(t *testing.T) {
	small, large := listRequestAllocs(t, 32), listRequestAllocs(t, 1000)
	t.Logf("GET /api/workflows: %.0f allocations over 32 workflows, %.0f over 1,000 (ceiling %d)", small, large, maxAllocsPerList)
	if large != small {
		t.Errorf("GET /api/workflows allocates %.0f objects over 1,000 workflows and %.0f over 32: the listing allocates per row", large, small)
	}
	if large > maxAllocsPerList {
		t.Errorf("GET /api/workflows allocates %.0f objects, ceiling %d", large, maxAllocsPerList)
	}
}

// maxAllocsPerList is TestListRequestAllocCeiling's ceiling.
const maxAllocsPerList = 10

// discardResponse is a ResponseWriter that keeps nothing of the body and
// reuses its header map, so every allocation counted is the handler's.
type discardResponse struct {
	h    http.Header
	code int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }

// listRequestAllocs returns what one view-backed GET /api/workflows
// allocates, on average, once every row has been encoded, over views of
// the given number of running workflows.
func listRequestAllocs(t *testing.T, workflows int) float64 {
	v := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0)), FlushEvery: time.Hour})
	defer v.Close()
	ts := time.Date(2012, 3, 13, 12, 35, 38, 0, time.UTC)
	batch := make([]*bp.Event, 0, 2*workflows)
	for i := 0; i < workflows; i++ {
		id := uuid.New().String()
		batch = append(batch,
			bp.New(schema.WfPlan, ts).Set(schema.AttrXwfID, id).Set("dax.label", "alloc").Set("submit.hostname", "submit-host"),
			bp.New(schema.XwfStart, ts.Add(time.Second)).Set(schema.AttrXwfID, id))
	}
	v.ObserveBatch(batch)
	v.FlushNow() // so the publisher has nothing left to allocate for
	a := archive.NewInMemory()
	defer a.Close()
	srv := dashboard.New(query.New(a))
	srv.SetViews(v)
	req := httptest.NewRequest(http.MethodGet, "/api/workflows", nil)
	w := &discardResponse{h: make(http.Header)}
	return testing.AllocsPerRun(200, func() {
		w.code = http.StatusOK
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("GET /api/workflows: status %d", w.code)
		}
	})
}
