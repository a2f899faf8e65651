package loader

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/mq"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/uuid"
	"repro/internal/views"
	"repro/internal/wfclock"
)

var t0 = time.Date(2012, 3, 13, 12, 35, 38, 0, time.UTC)

// workflowStream renders a small but complete workflow as BP text: one
// workflow, n jobs each with one instance and one invocation.
func workflowStream(wf string, n int) string {
	var buf bytes.Buffer
	w := bp.NewWriter(&buf)
	at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }
	emit := func(e *bp.Event) { _ = w.Write(e) }
	mk := func(typ string, sec int) *bp.Event {
		return bp.New(typ, at(sec)).Set(schema.AttrXwfID, wf)
	}
	emit(mk(schema.WfPlan, 0).Set("submit.hostname", "desktop").Set(schema.AttrRootXwf, wf))
	emit(mk(schema.XwfStart, 0).SetInt("restart_count", 0))
	for i := 0; i < n; i++ {
		job := fmt.Sprintf("job%03d", i)
		emit(mk(schema.JobInfo, 0).Set(schema.AttrJobID, job).Set("type_desc", "compute").
			SetInt("clustered", 0).SetInt("max_retries", 0).Set(schema.AttrExecutable, "/bin/x").SetInt("task_count", 1))
		ji := func(typ string, sec int) *bp.Event {
			return mk(typ, sec).Set(schema.AttrJobID, job).SetInt(schema.AttrJobInstID, 1)
		}
		emit(ji(schema.SubmitStart, i+1))
		emit(ji(schema.MainStart, i+2))
		emit(ji(schema.InvEnd, i+3).SetInt(schema.AttrInvID, 1).
			Set(schema.AttrStartTime, at(i+2).Format(bp.TimeFormat)).
			SetFloat(schema.AttrDur, 1).SetInt(schema.AttrExitcode, 0).Set(schema.AttrTransform, "x"))
		emit(ji(schema.MainEnd, i+3).SetInt(schema.AttrStatus, 0).SetInt(schema.AttrExitcode, 0))
	}
	emit(mk(schema.XwfEnd, n+5).SetInt("restart_count", 0).SetInt(schema.AttrStatus, 0))
	_ = w.Flush()
	return buf.String()
}

func TestLoadReaderEndToEnd(t *testing.T) {
	a := archive.NewInMemory()
	l, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wf := uuid.New().String()
	stats, err := l.LoadReader(strings.NewReader(workflowStream(wf, 10)))
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := uint64(3 + 10*5) // plan+start+end plus 5 per job
	if stats.Read != wantEvents || stats.Loaded != wantEvents {
		t.Fatalf("stats = %+v, want read=loaded=%d", stats, wantEvents)
	}
	if n, _ := a.Store().Count(archive.TJob); n != 10 {
		t.Errorf("jobs = %d", n)
	}
	if n, _ := a.Store().Count(archive.TInvocation); n != 10 {
		t.Errorf("invocations = %d", n)
	}
	if stats.Rate() <= 0 {
		t.Error("rate not computed")
	}
}

func TestLoadFileMatchesReader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.bp")
	wf := uuid.New().String()
	if err := os.WriteFile(path, []byte(workflowStream(wf, 3)), 0o644); err != nil {
		t.Fatal(err)
	}
	a := archive.NewInMemory()
	l, _ := New(a, Options{})
	stats, err := l.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded == 0 {
		t.Fatal("nothing loaded from file")
	}
	if _, err := l.LoadFile(filepath.Join(dir, "missing.bp")); err == nil {
		t.Error("missing file load succeeded")
	}
}

func TestValidationRejectsStrict(t *testing.T) {
	a := archive.NewInMemory()
	l, _ := New(a, Options{})
	// xwf.start without mandatory restart_count.
	line := "ts=2012-03-13T12:35:38.000000Z event=stampede.xwf.start xwf.id=" + uuid.New().String() + "\n"
	stats, err := l.LoadReader(strings.NewReader(line))
	if err == nil {
		t.Fatal("invalid event loaded in strict mode")
	}
	if stats.Invalid != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestLenientSkipsBadLinesAndEvents(t *testing.T) {
	a := archive.NewInMemory()
	l, _ := New(a, Options{Lenient: true, BatchSize: 2})
	wf := uuid.New().String()
	input := "this is not bp\n" +
		"ts=2012-03-13T12:35:38.000000Z event=stampede.xwf.start xwf.id=" + wf + "\n" + // invalid: no restart_count
		"ts=2012-03-13T12:35:38.000000Z event=not.a.stampede.event\n" + // unknown type -> schema invalid
		workflowStream(wf, 2)
	stats, err := l.LoadReader(strings.NewReader(input))
	if err != nil {
		t.Fatalf("lenient load failed: %v", err)
	}
	if stats.Malformed != 1 {
		t.Errorf("malformed = %d, want 1", stats.Malformed)
	}
	if stats.Invalid != 2 {
		t.Errorf("invalid = %d, want 2", stats.Invalid)
	}
	if n, _ := a.Store().Count(archive.TJob); n != 2 {
		t.Errorf("jobs = %d", n)
	}
}

// TestUnrepresentableTimestampRefused: an event whose ts or nl_ts leaf names
// an instant the store's UnixNano time slot cannot hold (before 1678 or
// after 2262; bp.ParseTime reads years 1–9999) is refused by the schema, as
// a whole: it names a workflow of its own, so folding any part of it — the
// workflow, job or job-instance placeholder an inv.end makes before its
// invocation row — would add rows. The lenient loader counts it Invalid and
// loads the rest with the store hashing as the clean stream; the strict one
// aborts naming it; a direct Apply refuses it and changes nothing.
func TestUnrepresentableTimestampRefused(t *testing.T) {
	wf := uuid.New().String()
	clean := archive.NewInMemory()
	l, _ := New(clean, Options{Lenient: true, BatchSize: 4})
	cleanStats, err := l.LoadReader(strings.NewReader(workflowStream(wf, 2)))
	if err != nil {
		t.Fatal(err)
	}
	want := archiveHash(t, clean)

	other := uuid.New().String()
	ref := " xwf.id=" + other + " job.id=j job_inst.id=1"
	for _, bad := range []string{
		"ts=1600-01-01T00:00:00.000000Z event=stampede.xwf.start xwf.id=" + other + " restart_count=0",
		"ts=2300-01-01T00:00:00.000000Z event=stampede.job_inst.main.start" + ref,
		"ts=2012-03-13T12:35:38.000000Z event=stampede.inv.end" + ref +
			" inv.id=1 start_time=1600-01-01T00:00:00.000000Z dur=1 exitcode=0 transformation=x",
		"ts=2012-03-13T12:35:38.000000Z event=stampede.inv.end" + ref +
			" inv.id=1 start_time=-9999999999 dur=1 exitcode=0 transformation=x",
	} {
		input := workflowStream(wf, 2) + bad + "\n"

		b := archive.NewInMemory()
		l, _ := New(b, Options{Lenient: true, BatchSize: 4})
		stats, err := l.LoadReader(strings.NewReader(input))
		if err != nil {
			t.Fatalf("%s: lenient load failed: %v", bad, err)
		}
		if stats.Invalid != 1 || stats.Loaded != cleanStats.Loaded || stats.Read != cleanStats.Read+1 {
			t.Fatalf("%s: lenient: %s; want the clean stream's %d loaded and 1 invalid", bad, stats.String(), cleanStats.Loaded)
		}
		if got := archiveHash(t, b); got != want {
			t.Fatalf("%s: the refused event changed the store: hash %s, without it %s", bad, got, want)
		}

		c := archive.NewInMemory()
		l, _ = New(c, Options{BatchSize: 4})
		stats, err = l.LoadReader(strings.NewReader(input))
		if err == nil || !strings.Contains(err.Error(), "outside the representable range") {
			t.Fatalf("%s: strict: err = %v, want the schema's complaint", bad, err)
		}
		if stats.Invalid != 1 {
			t.Fatalf("%s: strict: %s; want invalid=1", bad, stats.String())
		}

		ev, err := bp.Parse(bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := clean.Apply(ev); err == nil || !strings.Contains(err.Error(), "outside the representable range") {
			t.Fatalf("%s: Apply: err = %v, want the schema's complaint", bad, err)
		}
		if got := archiveHash(t, clean); got != want {
			t.Fatalf("%s: a refused Apply changed the store: hash %s, before %s", bad, got, want)
		}
	}
}

// TestStrictRefusalNamesEventType: the archive refuses an event inside a
// batch, and the strict loader's error names its type — read before the
// batch's events go back to the pool, where another parse may take and
// reset them. The rest of the batch is still applied or counted.
func TestStrictRefusalNamesEventType(t *testing.T) {
	wf := uuid.New().String()
	bad := "ts=2012-03-13T12:35:38.000000Z event=stampede.xwf.start xwf.id=" + uuid.New().String() + "\n"
	input := workflowStream(wf, 1) + bad + workflowStream(wf, 1)
	l, _ := New(archive.NewInMemory(), Options{})
	st, err := l.LoadReader(strings.NewReader(input))
	if err == nil || !strings.HasPrefix(err.Error(), "loader: stampede.xwf.start: schema: event stampede.xwf.start invalid:") {
		t.Fatalf("strict: err = %v, want it to open with the refused event's type", err)
	}
	if st.Invalid != 1 || st.Loaded+st.Invalid != st.Read {
		t.Fatalf("strict: %s; want 1 invalid and every event read loaded or counted", st.String())
	}
}

// TestOutOfRangeTimestampRefused: NaN, 1e300 and -1e20 parse as floats but
// name no instant bp.ParseTime can read, so the schema refuses them as an
// nl_ts: an inv.end whose mandatory start_time is one of them is counted
// Invalid and stores nothing — not an invocation with a NULL start time.
func TestOutOfRangeTimestampRefused(t *testing.T) {
	wf := uuid.New().String()
	clean := workflowStream(wf, 2)
	ref := archive.NewInMemory()
	l, _ := New(ref, Options{})
	if _, err := l.LoadReader(strings.NewReader(clean)); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"NaN", "1e300", "-1e20"} {
		line := bp.New(schema.InvEnd, t0).Set(schema.AttrXwfID, wf).
			Set(schema.AttrJobID, "job000").SetInt(schema.AttrJobInstID, 1).SetInt(schema.AttrInvID, 9).
			Set(schema.AttrStartTime, v).SetFloat(schema.AttrDur, 1).
			SetInt(schema.AttrExitcode, 0).Set(schema.AttrTransform, "x").Format() + "\n"
		a := archive.NewInMemory()
		l, _ := New(a, Options{Lenient: true})
		st, err := l.LoadReader(strings.NewReader(clean + line))
		if err != nil || st.Invalid != 1 {
			t.Errorf("start_time=%s: %s, %v; want the line counted invalid", v, st.String(), err)
		}
		if got, want := archiveHash(t, a), archiveHash(t, ref); got != want {
			t.Errorf("start_time=%s: the refused event changed the store: hash %s, without it %s", v, got, want)
		}
		ev, err := bp.Parse(strings.TrimSuffix(line, "\n"))
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Apply(ev); err == nil || !strings.HasSuffix(err.Error(), `invalid: attribute "start_time": "`+v+`" is not an nl_ts timestamp`) {
			t.Errorf("start_time=%s: Archive.Apply = %v, want the schema's nl_ts refusal", v, err)
		}
	}
}

func TestBatchSizesProduceIdenticalArchives(t *testing.T) {
	wf := uuid.New().String()
	input := workflowStream(wf, 20)
	var counts []map[string]int
	for _, bs := range []int{1, 7, 512} {
		a := archive.NewInMemory()
		l, _ := New(a, Options{BatchSize: bs})
		if _, err := l.LoadReader(strings.NewReader(input)); err != nil {
			t.Fatalf("batch size %d: %v", bs, err)
		}
		m := map[string]int{}
		sn := a.Snapshot()
		for _, table := range sn.TableNames() {
			m[table], _ = a.Store().Count(table)
		}
		sn.Close()
		counts = append(counts, m)
	}
	for i := 1; i < len(counts); i++ {
		for table, n := range counts[0] {
			if counts[i][table] != n {
				t.Errorf("table %s differs across batch sizes: %d vs %d", table, n, counts[i][table])
			}
		}
	}
}

func TestConsumeFromBus(t *testing.T) {
	// Full realtime pipeline: publisher -> broker -> loader -> archive.
	broker := mq.NewBroker()
	q, err := broker.DeclareQueue("stampede", mq.QueueOpts{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.Bind("stampede", "stampede.#"); err != nil {
		t.Fatal(err)
	}
	a := archive.NewInMemory()
	l, _ := New(a, Options{FlushEvery: 10 * time.Millisecond})

	wf := uuid.New().String()
	lines := strings.Split(strings.TrimSpace(workflowStream(wf, 5)), "\n")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, line := range lines {
			ev, err := bp.Parse(line)
			if err != nil {
				t.Errorf("parse: %v", err)
				return
			}
			broker.Publish(ev.Type, []byte(line))
		}
		// Give the flush ticker a chance, then close the stream.
		time.Sleep(50 * time.Millisecond)
		broker.DeleteQueue("stampede")
	}()

	stats, err := l.ConsumeQueue(context.Background(), q)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != uint64(len(lines)) {
		t.Fatalf("loaded %d, want %d", stats.Loaded, len(lines))
	}
	if n, _ := a.Store().Count(archive.TJob); n != 5 {
		t.Errorf("jobs = %d", n)
	}
}

func TestConsumeContextCancel(t *testing.T) {
	broker := mq.NewBroker()
	q, _ := broker.DeclareQueue("q", mq.QueueOpts{Durable: true})
	_ = broker.Bind("q", "#")
	a := archive.NewInMemory()
	l, _ := New(a, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := l.ConsumeQueue(ctx, q)
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("err = %v, want context canceled", err)
	}
}

func TestConsumeFlushTickerMakesDataVisible(t *testing.T) {
	broker := mq.NewBroker()
	q, _ := broker.DeclareQueue("q", mq.QueueOpts{Durable: true})
	_ = broker.Bind("q", "stampede.#")
	a := archive.NewInMemory()
	// Huge batch size: the event is applied because the queue has nothing
	// more, or at the latest by the ticker; never by filling the batch.
	l, _ := New(a, Options{BatchSize: 100000, FlushEvery: 10 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		_, _ = l.ConsumeQueue(ctx, q)
	}()
	wf := uuid.New().String()
	ev := bp.New(schema.XwfStart, t0).Set(schema.AttrXwfID, wf).SetInt("restart_count", 0)
	broker.Publish(ev.Type, []byte(ev.Format()))
	deadline := time.After(3 * time.Second)
	for {
		if n, _ := a.Store().Count(archive.TWorkflowState); n == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("ticker flush did not make event visible")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-loadDone
}

func TestLoaderTotalStatsAccumulate(t *testing.T) {
	a := archive.NewInMemory()
	l, _ := New(a, Options{})
	for i := 0; i < 3; i++ {
		wf := uuid.New().String()
		if _, err := l.LoadReader(strings.NewReader(workflowStream(wf, 1))); err != nil {
			t.Fatal(err)
		}
	}
	total := l.TotalStats()
	if total.Loaded != 3*8 {
		t.Fatalf("total loaded = %d, want 24", total.Loaded)
	}
}

func TestOptionsValidation(t *testing.T) {
	a := archive.NewInMemory()
	if _, err := New(a, Options{BatchSize: -1}); err == nil {
		t.Error("negative batch size accepted")
	}
}

func TestRelstoreIntegrationPersists(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a")
	st, err := relstore.OpenDir(dir, relstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := archive.New(st)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := New(a, Options{})
	wf := uuid.New().String()
	if _, err := l.LoadReader(strings.NewReader(workflowStream(wf, 4))); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := archive.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := re.Store().Count(archive.TJob); n != 4 {
		t.Fatalf("persisted jobs = %d", n)
	}
}

// TestNonFiniteDecimalRefused: "NaN" and "Inf" parse as floats and are no
// decimal64. The validator refuses the event naming the attribute — lenient
// counts it Invalid and the store hashes as if the line never came, strict
// aborts — and one such line costs the glass nothing: every workflow,
// the one the line named included, is in the next flush and in the snapshot
// a client connects to, which one NaN in a quantile estimator used to blank.
func TestNonFiniteDecimalRefused(t *testing.T) {
	wfA, wfB := uuid.New().String(), uuid.New().String()
	inv := func(attr, val string) string {
		return bp.New(schema.InvEnd, t0).Set(schema.AttrXwfID, wfA).
			Set(schema.AttrJobID, "job000").SetInt(schema.AttrJobInstID, 1).SetInt(schema.AttrInvID, 9).
			Set(schema.AttrStartTime, t0.Format(bp.TimeFormat)).SetFloat(schema.AttrDur, 1).
			SetInt(schema.AttrExitcode, 0).Set(schema.AttrTransform, "x").
			Set(attr, val).Format() + "\n"
	}
	clean := workflowStream(wfA, 2) + workflowStream(wfB, 2)
	bad := []string{inv(schema.AttrDur, "NaN"), inv(schema.AttrRemoteCPU, "Inf"), inv(schema.AttrDur, "-inf")}
	input := workflowStream(wfA, 2) + strings.Join(bad, "") + workflowStream(wfB, 2)

	a := archive.NewInMemory()
	l, _ := New(a, Options{Lenient: true, BatchSize: 4})
	want, err := l.LoadReader(strings.NewReader(clean))
	if err != nil {
		t.Fatal(err)
	}

	// glass attaches views with a broadcast subscriber to a load and returns
	// what that subscriber was last sent for each workflow and what a client
	// connecting afterwards gets.
	glass := func(arch *archive.Archive, opts Options, in string) (Stats, map[string]views.WorkflowDelta, []views.WorkflowDelta) {
		t.Helper()
		v := views.New(views.Options{Clock: wfclock.NewManual(t0)})
		defer v.Close()
		sub := v.Subscribe("")
		defer sub.Close()
		opts.Views = v
		l, _ := New(arch, opts)
		stats, err := l.LoadReader(strings.NewReader(in))
		if err != nil {
			t.Fatalf("load failed: %v", err)
		}
		v.FlushNow() // whatever the publisher, resting on a still clock, has not taken
		sent := map[string]views.WorkflowDelta{}
		var frames strings.Builder
		sub.WriteTo(&frames)
		for _, frame := range strings.Split(frames.String(), "\n\n") {
			if body, ok := strings.CutPrefix(frame, "event: delta\ndata: "); ok {
				var d views.WorkflowDelta
				if err := json.Unmarshal([]byte(body), &d); err != nil {
					t.Fatalf("delta %q: %v", body, err)
				}
				sent[d.UUID] = d
			}
		}
		var snapshot []views.WorkflowDelta
		if err := json.Unmarshal(v.AppendSnapshot(nil, ""), &snapshot); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		return stats, sent, snapshot
	}

	b := archive.NewInMemory()
	stats, sent, snapshot := glass(b, Options{Lenient: true, BatchSize: 4}, input)
	if stats.Invalid != uint64(len(bad)) || stats.Loaded != want.Loaded {
		t.Fatalf("lenient: %s; want the clean stream's %d loaded and %d invalid", stats.String(), want.Loaded, len(bad))
	}
	if got, w := archiveHash(t, b), archiveHash(t, a); got != w {
		t.Fatalf("the refused events changed the store: hash %s, without them %s", got, w)
	}
	if len(sent) != 2 || len(snapshot) != 2 {
		t.Fatalf("%d workflows flushed, %d in the snapshot; want both in both", len(sent), len(snapshot))
	}
	for _, d := range snapshot {
		if d.Invocations != 2 || d.P99 != 1 || !reflect.DeepEqual(sent[d.UUID], d) {
			t.Errorf("workflow %s: snapshot %+v, last delta %+v; want 2 invocations and a p99 of 1 in both", d.UUID, d, sent[d.UUID])
		}
	}

	d := archive.NewInMemory()
	l, _ = New(d, Options{BatchSize: 4})
	stats, err = l.LoadReader(strings.NewReader(input))
	if err == nil || !strings.Contains(err.Error(), `attribute "dur": "NaN" is not a decimal64`) {
		t.Fatalf("strict: err = %v, want the validator's complaint naming dur", err)
	}
	if stats.Invalid == 0 {
		t.Fatalf("strict: %s; want the line counted invalid", stats.String())
	}
}
