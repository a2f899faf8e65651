package loader

import (
	"context"
	"fmt"
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
				Clock: wfclock.NewManual(t0), Views: seen, Validate: true,
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
		Clock: wfclock.NewManual(t0), Views: seen, Validate: true,
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
// partitions it owns once BatchSize events are applied and unsynced, on the
// FlushEvery tick, and before Consume returns — and only those partitions.
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
	// The tick syncs them: one fsync per partition, each by its owner.
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
