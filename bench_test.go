package repro

// One benchmark per reproduced table and figure, plus the ablation
// benches DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The engine-driven benches run on a heavily scaled virtual clock, so a
// full 306-execution DART run costs tens of milliseconds of wall time.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/dart"
	"repro/internal/dashboard"
	"repro/internal/eventlog"
	"repro/internal/experiments"
	"repro/internal/loader"
	"repro/internal/mq"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/uuid"
	"repro/internal/views"
)

// --- E1–E4: the DART experiment and its reports -------------------------

// dartOnce shares one completed DART run across the report benches so
// each bench times only its own report generation.
var (
	dartOnce sync.Once
	dartData *experiments.DARTData
	dartErr  error
)

func sharedDART(b *testing.B) *experiments.DARTData {
	b.Helper()
	dartOnce.Do(func() {
		dartData, dartErr = experiments.RunDART(experiments.DARTOptions{Scale: 20000})
	})
	if dartErr != nil {
		b.Fatal(dartErr)
	}
	return dartData
}

// BenchmarkTable1DARTSummary regenerates Table I end to end: the full
// 306-execution DART meta-workflow over 8 simulated nodes, loading, and
// the summary computation.
func BenchmarkTable1DARTSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.RunDART(experiments.DARTOptions{Scale: 20000})
		if err != nil {
			b.Fatal(err)
		}
		if d.Summary.Tasks.Total != 367 || len(d.Bundles) != 20 {
			b.Fatalf("summary off: %d tasks, %d bundles", d.Summary.Tasks.Total, len(d.Bundles))
		}
	}
}

// BenchmarkTable2Breakdown times breakdown.txt generation over the loaded
// DART archive.
func BenchmarkTable2Breakdown(b *testing.B) {
	d := sharedDART(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable34Jobs times jobs.txt generation (Tables III & IV).
func BenchmarkTable34Jobs(b *testing.B) {
	d := sharedDART(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table34(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Progress times the Figure 7 progress-series computation
// over all 20 bundles.
func BenchmarkFig7Progress(b *testing.B) {
	d := sharedDART(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := stats.ProgressSeries(d.Q, d.RootID)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 20 {
			b.Fatalf("series = %d", len(series))
		}
	}
}

// --- E5: loader scaling and its ablations -------------------------------

func benchLoad(b *testing.B, jobs, batch int) {
	trace := experiments.TraceFor(jobs)
	var events int
	// allocs/event is measured as the MemStats mallocs delta over the timed
	// region. It differs from -benchmem's allocs/op only in units:
	// allocs/op covers the whole iteration, allocs/event divides by events
	// loaded.
	var ms0, ms1 runtime.MemStats
	var allocs uint64
	// One untimed warmup load so every scale measures steady state. The
	// top scale only gets one timed iteration, and without warmup that
	// iteration is charged for growing the heap from the OS (page faults
	// on ~1GB of fresh spans) — a one-off cost the smaller scales amortize
	// over many iterations, which skewed the cross-scale comparison.
	{
		a := archive.NewInMemory()
		l, err := loader.New(a, loader.Options{BatchSize: batch})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.LoadReader(bytes.NewReader(trace)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each iteration measures one load into a fresh archive. The
		// previous iteration's archive (up to a GB of live rows at the top
		// scale) is garbage the moment the new one is created; collect it
		// outside the timed region so iteration i is not charged for
		// marking and sweeping iteration i-1's heap.
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		b.StartTimer()
		a := archive.NewInMemory()
		l, err := loader.New(a, loader.Options{BatchSize: batch})
		if err != nil {
			b.Fatal(err)
		}
		st, err := l.LoadReader(bytes.NewReader(trace))
		if err != nil {
			b.Fatal(err)
		}
		events = int(st.Loaded)
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		b.StartTimer()
	}
	b.StopTimer()
	if total := float64(events) * float64(b.N); total > 0 {
		b.ReportMetric(float64(allocs)/total, "allocs/event")
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkLoaderScale measures end-to-end load throughput across
// workflow sizes (the paper's O(10^6)-events claim at the top size).
func BenchmarkLoaderScale100(b *testing.B)  { benchLoad(b, 100, 512) }
func BenchmarkLoaderScale1k(b *testing.B)   { benchLoad(b, 1000, 512) }
func BenchmarkLoaderScale10k(b *testing.B)  { benchLoad(b, 10000, 512) }
func BenchmarkLoaderScale100k(b *testing.B) { benchLoad(b, 100000, 512) }

// BenchmarkLoaderScale10kEventlog is BenchmarkLoaderScale10k with the
// event-log tap attached: every raw line is framed, content-hashed,
// checksummed and group-flushed to a segment file on the way into the
// parser. Its events/s against the untapped 10k bench is the measured
// ingest cost of durable-log-as-source-of-truth; the <5% overhead claim
// lives in BENCH_loader.json.
func BenchmarkLoaderScale10kEventlog(b *testing.B) {
	trace := experiments.TraceFor(10000)
	var events int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lg, err := eventlog.Open(b.TempDir(), eventlog.Options{})
		if err != nil {
			b.Fatal(err)
		}
		a := archive.NewInMemory()
		l, err := loader.New(a, loader.Options{
			BatchSize: 512,
			Tap: func(line []byte) error {
				_, terr := lg.Append(line)
				return terr
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err := l.LoadReader(bytes.NewReader(trace))
		if err != nil {
			b.Fatal(err)
		}
		if err := lg.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		events = int(st.Loaded)
		if lg.Appends() != st.Read+st.Malformed {
			b.Fatalf("log %d records, loader read %d", lg.Appends(), st.Read)
		}
		lg.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEventlogAppend times the log's append fast path alone —
// frame encode, FNV-1a content id, CRC32C, group-flush — on a realistic
// BP line, reported in events/s like the loader benches.
func BenchmarkEventlogAppend(b *testing.B) {
	lg, err := eventlog.Open(b.TempDir(), eventlog.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer lg.Close()
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
	b.ReportAllocs()
	b.SetBytes(int64(len(line)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lg.Append(line); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkLoaderBatchSize is the batched-inserts ablation (§V-D): the
// archive is persistent and durable, so every batch pays a WAL fsync —
// the commit cost the paper's batching amortizes.
func benchLoadDurable(b *testing.B, jobs, batch int) {
	trace := experiments.TraceFor(jobs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, err := archive.OpenDir(filepath.Join(b.TempDir(), "bench"), relstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		a.Store().SetSync(true)
		l, err := loader.New(a, loader.Options{BatchSize: batch})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := l.LoadReader(bytes.NewReader(trace)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		a.Close()
		b.StartTimer()
	}
}

func BenchmarkLoaderBatchSize1(b *testing.B)    { benchLoadDurable(b, 1000, 1) }
func BenchmarkLoaderBatchSize64(b *testing.B)   { benchLoadDurable(b, 1000, 64) }
func BenchmarkLoaderBatchSize512(b *testing.B)  { benchLoadDurable(b, 1000, 512) }
func BenchmarkLoaderBatchSize4096(b *testing.B) { benchLoadDurable(b, 1000, 4096) }

// BenchmarkLoaderParallel is the durable multi-writer contention bench:
// an interleaved multi-workflow trace loaded fsync-on into a partitioned
// store with 1..8 apply shards, one partition per shard so each shard
// commits through its own writer mutex, epoch and WAL segment. BatchSize
// 1 models the strictest real-time configuration — every event durable
// before the next — where commit latency, not CPU, bounds throughput
// even on one core. fsyncs/op is the total across partitions and
// part-fsyncs/op the per-partition share: group commit coalesces each
// partition's concurrent appends into shared syncs, so the per-partition
// number falls as shards are added even when wall-clock cannot.
var parallelTraceOnce struct {
	sync.Once
	trace []byte
}

// parallelTrace round-robin interleaves the event streams of independent
// synthetic workflows, the worst case for per-workflow batching locality
// and the realistic shape of a shared message bus feed. Workflows are
// picked so their uuids spread evenly over 8 routing classes — a skewed
// handful of workflows would measure hash luck, not the pipeline.
func parallelTrace(workflows, jobs int) []byte {
	parallelTraceOnce.Do(func() {
		perClass := workflows / 8
		classCount := make([]int, 8)
		streams := make([][]string, 0, workflows)
		for seed := int64(1); len(streams) < workflows && seed < 10000; seed++ {
			tr := synth.Generate(synth.Config{Seed: seed, Jobs: jobs})
			cls := archive.Route(tr.RootUUID, 8)
			if classCount[cls] >= perClass {
				continue
			}
			classCount[cls]++
			var buf bytes.Buffer
			if _, err := tr.WriteTo(&buf); err != nil {
				panic(err)
			}
			streams = append(streams, strings.Split(strings.TrimRight(buf.String(), "\n"), "\n"))
		}
		var out bytes.Buffer
		for i := 0; ; i++ {
			wrote := false
			for _, s := range streams {
				if i < len(s) {
					out.WriteString(s[i])
					out.WriteByte('\n')
					wrote = true
				}
			}
			if !wrote {
				break
			}
		}
		parallelTraceOnce.trace = out.Bytes()
	})
	return parallelTraceOnce.trace
}

func benchLoadParallel(b *testing.B, shards int) {
	trace := parallelTrace(32, 15)
	var events int
	var syncs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "store")
		a, err := archive.OpenDir(dir, relstore.Options{Partitions: shards})
		if err != nil {
			b.Fatal(err)
		}
		a.Store().SetSync(true)
		l, err := loader.New(a, loader.Options{BatchSize: 1, Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err := l.LoadReader(bytes.NewReader(trace))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		events = int(st.Loaded)
		syncs += a.Store().Syncs()
		a.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/op")
	b.ReportMetric(float64(syncs)/float64(b.N)/float64(shards), "part-fsyncs/op")
}

func BenchmarkLoaderParallel1(b *testing.B) { benchLoadParallel(b, 1) }
func BenchmarkLoaderParallel2(b *testing.B) { benchLoadParallel(b, 2) }
func BenchmarkLoaderParallel4(b *testing.B) { benchLoadParallel(b, 4) }
func BenchmarkLoaderParallel8(b *testing.B) { benchLoadParallel(b, 8) }

// BenchmarkLoaderPartitioned is the full durable pipeline over partition
// counts: the same interleaved trace, validated and batched at the
// production BatchSize, loaded into a checkpointed store whose partition
// count matches the loader's shard count (the 1:1 mapping production
// uses). CheckpointEvery is set low enough that several checkpoints fire
// per partition mid-load, so the events/s figure includes the cost of
// imaging and WAL truncation — the steady-state price of bounded
// recovery time, not just the append path.
func benchLoadPartitioned(b *testing.B, parts int) {
	trace := parallelTrace(32, 15)
	var events int
	var syncs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "store")
		a, err := archive.OpenDir(dir, relstore.Options{Partitions: parts, CheckpointEvery: 1024})
		if err != nil {
			b.Fatal(err)
		}
		a.Store().SetSync(true)
		l, err := loader.New(a, loader.Options{BatchSize: 512, Shards: parts})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err := l.LoadReader(bytes.NewReader(trace))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		events = int(st.Loaded)
		syncs += a.Store().Syncs()
		a.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(syncs)/float64(b.N)/float64(parts), "part-fsyncs/op")
}

func BenchmarkLoaderPartitioned1(b *testing.B)  { benchLoadPartitioned(b, 1) }
func BenchmarkLoaderPartitioned4(b *testing.B)  { benchLoadPartitioned(b, 4) }
func BenchmarkLoaderPartitioned16(b *testing.B) { benchLoadPartitioned(b, 16) }

// BenchmarkReadersUnderLoad measures loader throughput while concurrent
// dashboard-style scanners poll the archive through snapshots. Each scanner
// pins a snapshot, reads a workflow's jobs and invocations, releases it and
// sleeps until the next poll — the paced request pattern of a dashboard
// refreshing, not a spin loop (which on a small machine would measure CPU
// starvation, not locking). The readers=8 rate should sit within ~10% of
// the readers=0 baseline: snapshot readers never take the write lock, so
// the only cost the loader sees is the readers' own (bounded) CPU use.
func BenchmarkReadersUnderLoad0(b *testing.B) { benchReadersUnderLoad(b, 0) }
func BenchmarkReadersUnderLoad8(b *testing.B) { benchReadersUnderLoad(b, 8) }

func benchReadersUnderLoad(b *testing.B, readers int) {
	a := archive.NewInMemory()
	l, err := loader.New(a, loader.Options{BatchSize: 512})
	if err != nil {
		b.Fatal(err)
	}
	// A fixed base workflow gives the scanners a constant-size target no
	// matter how many loader iterations accumulate in the archive.
	base := synth.Generate(synth.Config{Seed: 999, Jobs: 300, Label: "readers-base"})
	var buf bytes.Buffer
	if _, err := base.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	if _, err := l.LoadReader(bytes.NewReader(buf.Bytes())); err != nil {
		b.Fatal(err)
	}
	q := query.New(a)
	wf, err := q.WorkflowByUUID(base.RootUUID)
	if err != nil || wf == nil {
		b.Fatalf("base workflow: %v, %v", wf, err)
	}

	stop := make(chan struct{})
	var scans atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				sq, done := q.Snapshot()
				jobs, jerr := sq.Jobs(wf.ID)
				_, ierr := sq.Invocations(wf.ID)
				done()
				if jerr != nil || ierr != nil || len(jobs) == 0 {
					b.Errorf("scan failed: %v %v (%d jobs)", jerr, ierr, len(jobs))
					return
				}
				scans.Add(1)
			}
		}()
	}

	var loaded int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := synth.Generate(synth.Config{Seed: int64(1000 + i), Jobs: 300})
		var tb bytes.Buffer
		if _, err := tr.WriteTo(&tb); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err := l.LoadReader(bytes.NewReader(tb.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		loaded += int64(st.Loaded)
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(loaded)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(scans.Load()), "scans")
}

// BenchmarkSubscribersUnderLoad measures loader throughput while N live
// SSE subscribers ride the materialized-view delta stream — the
// O(delta) serving claim under load. Each subscriber drives the real
// dashboard stream handler in-process (ServeHTTP onto a counting sink,
// no sockets). View maintenance costs the same per event no matter how
// many subscribers exist; each flush is rendered once into the views'
// frame log, which every subscriber reads; and the publisher rests longer
// the more a flush's delivery measurably costs (views.restAfter) — so
// even 10k subscribers should cost the loader <5% of its
// zero-subscriber throughput (BENCH_loader.json records both sides).
// Declaration order is run order: the 100-subscriber variant goes first
// so the 0 and 10k variants — the pair whose ratio is the acceptance
// criterion — run back-to-back, minimizing the machine drift between
// them on shared hardware.
func BenchmarkSubscribersUnderLoad100(b *testing.B) { benchSubscribersUnderLoad(b, 100) }
func BenchmarkSubscribersUnderLoad0(b *testing.B)   { benchSubscribersUnderLoad(b, 0) }
func BenchmarkSubscribersUnderLoad10k(b *testing.B) { benchSubscribersUnderLoad(b, 10000) }

// benchSSESink is an in-process SSE client endpoint: a ResponseWriter +
// Flusher that counts deliveries and bytes instead of writing to a
// connection. Accounting is O(1) per Write on purpose — scanning bodies
// for frame markers would charge the loader for sink bookkeeping (at
// 10k subscribers a single flush hands the sinks hundreds of MB).
type benchSSESink struct {
	hdr        http.Header
	deliveries atomic.Uint64
	bytes      atomic.Uint64
}

func (s *benchSSESink) Header() http.Header { return s.hdr }
func (s *benchSSESink) WriteHeader(int)     {}
func (s *benchSSESink) Flush()              {}
func (s *benchSSESink) Write(p []byte) (int, error) {
	s.deliveries.Add(1)
	s.bytes.Add(uint64(len(p)))
	return len(p), nil
}

func benchSubscribersUnderLoad(b *testing.B, subs int) {
	a := archive.NewInMemory()
	v := views.New(views.Options{})
	defer v.Close()
	l, err := loader.New(a, loader.Options{BatchSize: 512, Views: v})
	if err != nil {
		b.Fatal(err)
	}
	base := synth.Generate(synth.Config{Seed: 999, Jobs: 300, Label: "subs-base"})
	var buf bytes.Buffer
	if _, err := base.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	if _, err := l.LoadReader(bytes.NewReader(buf.Bytes())); err != nil {
		b.Fatal(err)
	}
	srv := dashboard.New(query.New(a))
	srv.SetViews(v)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	sinks := make([]*benchSSESink, subs)
	for i := range sinks {
		sinks[i] = &benchSSESink{hdr: make(http.Header)}
		wg.Add(1)
		go func(sink *benchSSESink) {
			defer wg.Done()
			req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, "/api/stream/workflows", nil)
			if rerr != nil {
				return
			}
			srv.ServeHTTP(sink, req)
		}(sinks[i])
	}
	for deadline := time.Now().Add(time.Minute); v.SubscriberCount() < subs; {
		if time.Now().After(deadline) {
			b.Fatalf("only %d/%d subscribers attached", v.SubscriberCount(), subs)
		}
		time.Sleep(time.Millisecond)
	}

	// The 0/100/10k variants are compared against each other as a ratio,
	// so each needs the same starting conditions. Warm-up loads equalize
	// the first-bench-in-the-process penalty (page faults, store slab
	// growth, branch warming — without this the variant that happens to
	// run first measures several percent slow), and a forced collection
	// resets GC pacing: the live set differs by orders of magnitude
	// (10k subscriber goroutine stacks), and carrying a stale
	// pacing target into the timed region would skew the comparison more
	// than the push layer itself does.
	for i := 0; i < 15; i++ {
		tr := synth.Generate(synth.Config{Seed: int64(5000 + i), Jobs: 300})
		var tb bytes.Buffer
		if _, err := tr.WriteTo(&tb); err != nil {
			b.Fatal(err)
		}
		if _, err := l.LoadReader(bytes.NewReader(tb.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	var loaded int64
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := synth.Generate(synth.Config{Seed: int64(1000 + i), Jobs: 300})
		var tb bytes.Buffer
		if _, err := tr.WriteTo(&tb); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err := l.LoadReader(bytes.NewReader(tb.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		loaded += int64(st.Loaded)
	}
	b.StopTimer()
	cancel()
	wg.Wait()
	var deliveries, delivered uint64
	for _, s := range sinks {
		deliveries += s.deliveries.Load()
		delivered += s.bytes.Load()
	}
	b.ReportMetric(float64(loaded)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(deliveries), "deliveries")
	b.ReportMetric(float64(delivered)/(1<<20), "pushMB")
}

// BenchmarkDashboardRequests times GET /api/workflows over a 32-workflow
// archive: the classic per-request snapshot scan (state re-derived from
// every workflowstate row, per workflow, per request) against the
// materialized-view path (copy the listing rows the views keep encoded,
// re-encoding only a row whose workflow changed since the last listing).
// The gap is the O(rows × clients) → O(delta) refactor.
func BenchmarkDashboardRequestsScan(b *testing.B) { benchDashboardRequests(b, false) }
func BenchmarkDashboardRequestsView(b *testing.B) { benchDashboardRequests(b, true) }

func benchDashboardRequests(b *testing.B, useViews bool) {
	trace := parallelTrace(32, 15)
	a := archive.NewInMemoryN(4)
	lopts := loader.Options{BatchSize: 512, Shards: 4}
	var v *views.Views
	if useViews {
		v = views.New(views.Options{})
		defer v.Close()
		lopts.Views = v
	}
	l, err := loader.New(a, lopts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := l.LoadReader(bytes.NewReader(trace)); err != nil {
		b.Fatal(err)
	}
	srv := dashboard.New(query.New(a))
	if useViews {
		srv.SetViews(v)
	}
	req := httptest.NewRequest(http.MethodGet, "/api/workflows", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// --- E6 and E7 -----------------------------------------------------------

// BenchmarkCrossEngine runs the same diamond workflow through both
// engines into one archive.
func BenchmarkCrossEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCrossEngine(50000)
		if err != nil {
			b.Fatal(err)
		}
		if r.Pegasus.Tasks.Total != r.Triana.Tasks.Total {
			b.Fatal("task counts diverged")
		}
	}
}

// BenchmarkAnomalyDetection runs the full analysis experiment: straggler
// trials, runtime anomaly scans, failure-prediction training and scoring.
func BenchmarkAnomalyDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAnomaly()
		if err != nil {
			b.Fatal(err)
		}
		if r.Recall() < 0.5 {
			b.Fatalf("recall collapsed: %v", r.Recall())
		}
	}
}

// --- E8 and E9: the paper's future-work experiments ----------------------

// BenchmarkTrianaLoadScaling times the conclusion's promised experiment:
// a real Triana run's event stream through the loader.
func BenchmarkTrianaLoadScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TrianaLoadScaling([]int{100})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Rate <= 0 {
			b.Fatal("no rate")
		}
	}
}

// BenchmarkContinuousDART times the §V-A data-driven streaming workflow.
func BenchmarkContinuousDART(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunContinuousDART(50, 220)
		if err != nil {
			b.Fatal(err)
		}
		if r.ChunksEmitted == 0 {
			b.Fatal("nothing streamed")
		}
	}
}

// --- Micro-benchmarks of the hot paths -----------------------------------

// BenchmarkBPFormat and BenchmarkBPParse time the wire format.
func BenchmarkBPFormat(b *testing.B) {
	ev := bp.New(schema.InvEnd, time.Now()).
		Set(schema.AttrXwfID, uuid.New().String()).
		Set(schema.AttrJobID, "processing.exec0").
		SetInt(schema.AttrJobInstID, 1).
		SetInt(schema.AttrInvID, 1).
		Set(schema.AttrStartTime, "2012-03-13T12:35:38.000000Z").
		SetFloat(schema.AttrDur, 51.0).
		SetInt(schema.AttrExitcode, 0).
		Set(schema.AttrTransform, "dart-exec")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ev.Format()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkBPParse(b *testing.B) {
	line := bp.New(schema.InvEnd, time.Now()).
		Set(schema.AttrXwfID, uuid.New().String()).
		Set(schema.AttrJobID, "processing.exec0").
		SetInt(schema.AttrJobInstID, 1).
		SetInt(schema.AttrInvID, 1).
		Set(schema.AttrStartTime, "2012-03-13T12:35:38.000000Z").
		SetFloat(schema.AttrDur, 51.0).
		SetInt(schema.AttrExitcode, 0).
		Set(schema.AttrTransform, "dart-exec").
		Format()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.Parse(line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseBytes times the pooled zero-copy parse the loader actually
// runs: ParseBytes draws the Event from the pool and the release returns
// it, so steady state is one backing-string allocation per line (compare
// BenchmarkBPParse, the unpooled caller-owned path).
func BenchmarkParseBytes(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := bp.ParseBytes(line)
		if err != nil {
			b.Fatal(err)
		}
		bp.ReleaseEvent(ev)
	}
}

// BenchmarkSchemaValidate times the pyang-equivalent check.
func BenchmarkSchemaValidate(b *testing.B) {
	v, err := schema.NewValidator()
	if err != nil {
		b.Fatal(err)
	}
	ev := bp.New(schema.XwfStart, time.Now()).
		Set(schema.AttrXwfID, uuid.New().String()).
		SetInt("restart_count", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Validate(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMQTopicRouting times publish through the topic exchange with a
// realistic binding set, against direct queue delivery as the baseline.
func BenchmarkMQTopicRouting(b *testing.B) {
	broker := mq.NewBroker()
	for i, pattern := range []string{
		"stampede.#", "stampede.job_inst.#", "stampede.inv.*", "stampede.xwf.*",
	} {
		name := fmt.Sprintf("q%d", i)
		if _, err := broker.DeclareQueue(name, mq.QueueOpts{Capacity: 1 << 20, Durable: true}); err != nil {
			b.Fatal(err)
		}
		if err := broker.Bind(name, pattern); err != nil {
			b.Fatal(err)
		}
	}
	body := []byte("ts=2012-03-13T12:35:38.000000Z event=stampede.inv.end dur=51.0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		broker.Publish("stampede.inv.end", body)
	}
}

func BenchmarkMQDirectDelivery(b *testing.B) {
	broker := mq.NewBroker()
	if _, err := broker.DeclareQueue("q", mq.QueueOpts{Capacity: 1 << 20, Durable: true}); err != nil {
		b.Fatal(err)
	}
	if err := broker.Bind("q", "stampede.inv.end"); err != nil {
		b.Fatal(err)
	}
	body := []byte("ts=2012-03-13T12:35:38.000000Z event=stampede.inv.end dur=51.0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		broker.Publish("stampede.inv.end", body)
	}
}

// BenchmarkRelstoreIndexVsScan is the index ablation: point lookups via
// the secondary index against full scans with a predicate.
func BenchmarkRelstoreIndexLookup(b *testing.B) { benchRelstore(b, true) }
func BenchmarkRelstoreScanLookup(b *testing.B)  { benchRelstore(b, false) }

func benchRelstore(b *testing.B, indexed bool) {
	s := relstore.NewStore()
	ts := relstore.TableSchema{
		Name: "jobstate",
		Columns: []relstore.Column{
			{Name: "job_instance_id", Type: relstore.Int},
			{Name: "state", Type: relstore.Str},
		},
		Indexes: [][]string{{"job_instance_id"}},
	}
	if err := s.CreateTable(ts); err != nil {
		b.Fatal(err)
	}
	lay := s.Layout("jobstate")
	instCol, _ := lay.Col("job_instance_id")
	stateCol, _ := lay.Col("state")
	const rows = 20000
	w := s.Writer(0)
	for i := 0; i < rows; i++ {
		d := w.NewRow(lay)
		d.SetInt(instCol, int64(i%1000))
		d.SetStr(stateCol, "EXECUTE")
		if _, err := w.Insert(&d); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := int64(i % 1000)
		var q relstore.Query
		if indexed {
			q = relstore.Query{Table: "jobstate", Conds: []relstore.Cond{relstore.Eq("job_instance_id", target)}}
		} else {
			q = relstore.Query{Table: "jobstate", Where: func(r *relstore.Row) bool {
				return r.Int(instCol) == target
			}}
		}
		got, err := s.Select(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != 20 {
			b.Fatalf("rows = %d", len(got))
		}
	}
}

// BenchmarkSHSDetect times the real workload: sub-harmonic-summation
// pitch detection over half a second of audio.
func BenchmarkSHSDetect(b *testing.B) {
	sig := dart.Synthesize(dart.ToneSpec{F0: 220, Harmonics: 6, Decay: 0.7, Noise: 0.2, Seconds: 0.5, Seed: 1})
	params := dart.SHSParams{NumHarmonics: 8, Compression: 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		track, err := dart.DetectPitch(sig, params)
		if err != nil {
			b.Fatal(err)
		}
		if track.Median() == 0 {
			b.Fatal("no pitch")
		}
	}
}

// BenchmarkArchiveApply times folding one complete small workflow into
// the archive, event by event.
func BenchmarkArchiveApply(b *testing.B) {
	trace := experiments.TraceFor(100)
	var events []*bp.Event
	for _, line := range bytes.Split(bytes.TrimSpace(trace), []byte("\n")) {
		ev, err := bp.ParseBytes(line)
		if err != nil {
			b.Fatal(err)
		}
		events = append(events, ev)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := archive.NewInMemory()
		for _, ev := range events {
			if err := a.Apply(ev); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(events)), "events/op")
}
