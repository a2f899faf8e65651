package loader

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/mq"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/wfclock"
)

// The tests here pin when a shard applies and when it syncs. They run on a
// Manual clock and never sleep: what must happen without the clock is
// waited for on a channel, what must not have happened is read off a
// counter after something ordered behind it has been seen.

// applies is a ViewObserver that reports the size of every apply.
type applies chan int

func (a applies) ObserveBatch(evs []*bp.Event) { a <- len(evs) }

// next returns the size of the next apply. The timeout only turns a hang
// into a failure.
func (a applies) next(t *testing.T) int {
	t.Helper()
	select {
	case n := <-a:
		return n
	case <-time.After(10 * time.Second):
		t.Fatal("no apply: the event is waiting for a full batch or a tick")
		return 0
	}
}

// uuidOn returns a workflow uuid that routes to partition part of parts —
// and so, in a pipeline as wide as the store, to shard part.
func uuidOn(part, parts int) string {
	for i := 0; ; i++ {
		u := fmt.Sprintf("%08d-0000-4000-8000-000000000000", i)
		if archive.Route(u, parts) == part {
			return u
		}
	}
}

func mustLoadDir(t *testing.T, dir string) *archive.Archive {
	t.Helper()
	a, err := archive.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func streamLines(s string) []mq.Message {
	var out []mq.Message
	for _, ln := range strings.Split(strings.TrimSpace(s), "\n") {
		out = append(out, mq.Message{Body: []byte(ln)})
	}
	return out
}

// spinUntil yields until cond holds. The deadline only turns a hang into
// a failure; nothing waits for it.
func spinUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestLoneEventAppliedWithoutTick: one event on an otherwise silent bus is
// applied and observed although the batch is nowhere near full and the
// clock never moves.
func TestLoneEventAppliedWithoutTick(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			seen := make(applies, 16)
			a := archive.NewInMemoryN(shards)
			l, err := New(a, Options{
				BatchSize: 100000, FlushEvery: time.Hour, Shards: shards,
				Clock: wfclock.NewManual(t0), Views: seen,
			})
			if err != nil {
				t.Fatal(err)
			}
			msgs := make(chan mq.Message, 16)
			done := make(chan error, 1)
			go func() { _, err := l.Consume(context.Background(), msgs); done <- err }()

			lines := streamLines(workflowStream(uuidOn(shards-1, shards), 1))
			for i, m := range lines {
				msgs <- m
				if n := seen.next(t); n != 1 {
					t.Fatalf("event %d: applied in a batch of %d, want 1", i, n)
				}
				if got := a.Applied(); got != uint64(i+1) {
					t.Fatalf("event %d observed with %d applied", i, got)
				}
			}
			close(msgs)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBacklogAppliesFullBatches: with the delivery channel holding 4 ×
// BatchSize events for every shard before the loader starts, the source
// never runs dry until the last event is taken, and every apply is a full
// batch — the idle rule costs a backlog nothing.
func TestBacklogAppliesFullBatches(t *testing.T) {
	const (
		shards    = 2
		jobs      = 9
		batchSize = (3 + 5*jobs) / 4 // 12
	)
	var streams []string
	for sh := 0; sh < shards; sh++ {
		streams = append(streams, workflowStream(uuidOn(sh, shards), jobs))
	}
	in := streamLines(interleavedStream(streams))
	if len(in) != shards*4*batchSize {
		t.Fatalf("stream has %d lines, want %d", len(in), shards*4*batchSize)
	}
	msgs := make(chan mq.Message, len(in))
	for _, m := range in {
		msgs <- m
	}
	close(msgs)

	seen := make(applies, len(in))
	l, err := New(archive.NewInMemoryN(shards), Options{
		BatchSize: batchSize, FlushEvery: time.Hour, Shards: shards,
		Clock: wfclock.NewManual(t0), Views: seen,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := l.Consume(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	close(seen)
	for n := range seen {
		if n != batchSize {
			t.Errorf("an apply of %d events, want only full batches of %d", n, batchSize)
		}
	}
	for _, ss := range st.Shards {
		if ss.Batches != 4 || ss.Applied != 4*batchSize {
			t.Errorf("shard %d: %d events in %d batches, want %d in 4", ss.Shard, ss.Applied, ss.Batches, 4*batchSize)
		}
	}
}

// TestSyncCadenceIsBatchSizeOrTick pins the durability contract on a
// syncing directory store: applying does not fsync; a shard syncs the
// partitions it owns, and only those, once BatchSize events are applied and
// unsynced; the FlushEvery tick syncs every partition with records pending,
// and nothing is left unsynced when Consume returns.
func TestSyncCadenceIsBatchSizeOrTick(t *testing.T) {
	const (
		shards    = 2
		parts     = 4 // each shard owns two
		batchSize = 8
	)
	dir := filepath.Join(t.TempDir(), "store")
	a, err := archive.OpenDir(dir, relstore.Options{Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Store().SetSync(true)
	clock := wfclock.NewManual(t0)
	seen := make(applies, 64)
	l, err := New(a, Options{
		BatchSize: batchSize, FlushEvery: time.Minute, Shards: shards,
		Clock: clock, Views: seen,
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs := make(chan mq.Message, 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { _, err := l.Consume(ctx, msgs); done <- err }()

	// One workflow per partition; partition p belongs to shard p % shards.
	lone := func(part, n int) {
		t.Helper()
		ev := bp.New(schema.XwfStart, t0.Add(time.Duration(n)*time.Second)).
			Set(schema.AttrXwfID, uuidOn(part, parts)).SetInt("restart_count", int64(n))
		msgs <- mq.Message{Body: []byte(ev.Format())}
		if got := seen.next(t); got != 1 {
			t.Fatalf("lone event applied in a batch of %d", got)
		}
	}
	syncs := a.Store().Syncs
	start := syncs()

	// K < BatchSize lone events on every partition: all applied, none synced.
	for n := 0; n < batchSize/2-1; n++ {
		for p := 0; p < parts; p++ {
			lone(p, n)
		}
	}
	if got := syncs(); got != start {
		t.Fatalf("%d fsyncs for %d applied events per shard with BatchSize %d and no tick, want none",
			got-start, 2*(batchSize/2-1), batchSize)
	}
	// The tick syncs them: one fsync per partition, whichever shard gets there.
	clock.Advance(time.Minute)
	spinUntil(t, "the tick's syncs", func() bool { return syncs() >= start+parts })
	// The size bound, on shard 0 alone: its BatchSize-th unsynced event
	// syncs the one partition of its two that has records, with no tick;
	// shard 1 applied nothing since and partitions 1 and 3 are left alone.
	for n := 0; n < batchSize; n++ {
		if got := syncs(); got != start+parts {
			t.Fatalf("%d fsyncs after %d unsynced events on shard 0, want %d", got, n, start+parts)
		}
		lone(0, 100+n)
	}
	spinUntil(t, "the size-bound sync", func() bool { return syncs() >= start+parts+1 })

	// What is applied and unsynced when the reading stops is synced before
	// Consume returns: the directory, read by another opener while this one
	// is still open, hashes like the live store.
	lone(1, 200)
	lone(2, 200)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Consume returned %v", err)
	}
	if got, want := syncs(), start+parts+1+2; got != want {
		t.Fatalf("%d fsyncs in all, want %d", got-start, want-start)
	}
	re, err := archive.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := archiveHash(t, re), archiveHash(t, a); got != want {
		t.Fatalf("directory hashes %s after Consume returned, the live store %s", got, want)
	}
}

// TestTickSyncsRowsOutsideOwnedPartitions: the archive writes host rows
// through partition 0's writer and a child plan's parent placeholder through
// the parent's partition, whichever shard applies the event. A shard's
// size-triggered sync covers only its own partitions; the next tick must
// make the rest durable, although by then the shard that wrote them has
// nothing unsynced and the shard that owns them never applied anything.
func TestTickSyncsRowsOutsideOwnedPartitions(t *testing.T) {
	const (
		shards = 2
		parts  = 4
	)
	dir := filepath.Join(t.TempDir(), "store")
	a, err := archive.OpenDir(dir, relstore.Options{Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Store().SetSync(true)
	clock := wfclock.NewManual(t0)
	seen := make(applies, 16)

	// A child workflow on partition 1 (shard 1) whose parent lives on
	// partition 2 (shard 0); its fifth event names a host (partition 0).
	wf, parent := uuidOn(1, parts), uuidOn(2, parts)
	mk := func(typ string) *bp.Event { return bp.New(typ, t0).Set(schema.AttrXwfID, wf) }
	ji := func(typ string) *bp.Event {
		return mk(typ).Set(schema.AttrJobID, "job000").SetInt(schema.AttrJobInstID, 1)
	}
	events := []*bp.Event{
		mk(schema.WfPlan).Set("submit.hostname", "desktop").Set(schema.AttrRootXwf, parent).Set(schema.AttrParentXwf, parent),
		mk(schema.XwfStart).SetInt("restart_count", 0),
		mk(schema.JobInfo).Set(schema.AttrJobID, "job000").Set("type_desc", "compute").
			SetInt("clustered", 0).SetInt("max_retries", 0).Set(schema.AttrExecutable, "/bin/x").SetInt("task_count", 1),
		ji(schema.SubmitStart),
		ji(schema.HostInfo).Set(schema.AttrSite, "local").Set(schema.AttrHostname, "node1").Set("ip", "10.0.0.1"),
	}
	l, err := New(a, Options{
		BatchSize: len(events), FlushEvery: time.Minute, Shards: shards,
		Clock: clock, Views: seen,
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs := make(chan mq.Message, 16)
	done := make(chan error, 1)
	go func() { _, err := l.Consume(context.Background(), msgs); done <- err }()

	// Sync the schema's create records first, which every partition holds.
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	syncs := a.Store().Syncs
	start := syncs()
	for i, ev := range events {
		if got := syncs(); got != start {
			t.Fatalf("%d fsyncs after %d events with BatchSize %d", got-start, i, len(events))
		}
		msgs <- mq.Message{Body: []byte(ev.Format())}
		seen.next(t)
	}
	// The size bound synced shard 1's own partition and nothing else.
	spinUntil(t, "the size-bound sync", func() bool { return syncs() >= start+1 })
	if n, _ := mustLoadDir(t, dir).Store().Count(archive.THost); n != 0 {
		t.Fatalf("%d host rows on disk before the tick: the test no longer has a row outside shard 1's partitions to wait for", n)
	}
	clock.Advance(time.Minute)
	spinUntil(t, "the tick's sync of partitions 0 and 2", func() bool { return syncs() >= start+3 })

	re := mustLoadDir(t, dir)
	if n, _ := re.Store().Count(archive.THost); n != 1 {
		t.Errorf("%d host rows on disk after the tick, want 1", n)
	}
	if n, _ := re.Store().Count(archive.TWorkflow); n != 2 {
		t.Errorf("%d workflow rows on disk after the tick, want the child and its parent's placeholder", n)
	}
	insts, err := re.Store().Select(relstore.Query{Table: archive.TJobInstance})
	if err != nil || len(insts) != 1 || insts[0].IsNull(re.Columns().JobInstance.HostID) {
		t.Errorf("job instances on disk: %v, %v; want one with its host_id", insts, err)
	}
	if got, want := archiveHash(t, re), archiveHash(t, a); got != want {
		t.Errorf("directory hashes %s after the tick, the live store %s", got, want)
	}
	close(msgs)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := syncs(); got != start+3 {
		t.Errorf("%d fsyncs in all, want 3", got-start)
	}
}

// TestPipeEventAppliedWithoutTick is TestLoneEventAppliedWithoutTick for a
// LoadReader over a pipe: a line written to a pipe that stays open is applied
// and observed with the batch nowhere near full and the clock still. A read
// that came back short took all the pipe had, so the parse stage tells the
// shards before it blocks in the next one.
func TestPipeEventAppliedWithoutTick(t *testing.T) {
	seen := make(applies, 16)
	a := archive.NewInMemoryN(2)
	l, err := New(a, Options{
		BatchSize: 100000, FlushEvery: time.Hour, Shards: 2,
		Clock: wfclock.NewManual(t0), Views: seen,
	})
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() { _, err := l.LoadReader(pr); done <- err }()

	lines := strings.SplitAfter(workflowStream(uuidOn(1, 2), 1), "\n")
	lines = lines[:len(lines)-1]
	for i, line := range lines {
		if _, err := io.WriteString(pw, line); err != nil {
			t.Fatal(err)
		}
		if n := seen.next(t); n != 1 {
			t.Fatalf("line %d: applied in a batch of %d, want 1", i, n)
		}
		if got := a.Applied(); got != uint64(i+1) {
			t.Fatalf("line %d observed with %d applied", i, got)
		}
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFileLoadFormsFullBatches: a reader that fills every read but its last
// — a file, a byte slice — never looks dry while it has lines left, so a
// file load batches as it did before the parse stage watched for short
// reads: full batches and one remainder per shard.
func TestFileLoadFormsFullBatches(t *testing.T) {
	const batchSize = 64
	var streams []string
	for sh := 0; sh < 2; sh++ {
		streams = append(streams, workflowStream(uuidOn(sh, 2), 400))
	}
	in := interleavedStream(streams)
	if len(in) < 4*64*1024 {
		t.Fatalf("the stream is %d bytes; it must span several of the scanner's 64 KiB reads", len(in))
	}
	seen := make(applies, 1+len(in)/batchSize)
	l, err := New(archive.NewInMemoryN(2), Options{
		BatchSize: batchSize, FlushEvery: time.Hour, Shards: 2,
		Clock: wfclock.NewManual(t0), Views: seen,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := l.LoadReader(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	close(seen)
	short := 0
	for n := range seen {
		if n != batchSize {
			short++
		}
	}
	// The last read is short, so the shards are told once before the EOF:
	// at most one remainder each then and one more at the drain.
	if short > 4 {
		t.Errorf("%d applies short of a full batch of %d across %d events, want at most 4: the file looked dry mid-load", short, batchSize, st.Loaded)
	}
}
