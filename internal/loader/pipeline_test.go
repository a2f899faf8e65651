package loader

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/mq"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/synth"
	"repro/internal/uuid"
	"repro/internal/wfclock"
)

// interleavedStream renders the given workflow streams line-interleaved
// (round-robin), the worst case for per-workflow ordering: consecutive
// source lines almost always belong to different workflows.
func interleavedStream(streams []string) string {
	var split [][]string
	max := 0
	for _, s := range streams {
		lines := strings.Split(strings.TrimSpace(s), "\n")
		split = append(split, lines)
		if len(lines) > max {
			max = len(lines)
		}
	}
	var b strings.Builder
	for i := 0; i < max; i++ {
		for _, lines := range split {
			if i < len(lines) {
				b.WriteString(lines[i])
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// tableCounts snapshots row counts for every table.
func tableCounts(t *testing.T, a *archive.Archive) map[string]int {
	t.Helper()
	m := map[string]int{}
	sn := a.Snapshot()
	defer sn.Close()
	for _, table := range sn.TableNames() {
		n, err := a.Store().Count(table)
		if err != nil {
			t.Fatal(err)
		}
		m[table] = n
	}
	return m
}

// assertJobstateOrdering checks the tentpole's ordering guarantee: for
// every job instance, the jobstate rows ordered by their submit sequence
// must have monotonically non-decreasing timestamps — i.e. each
// workflow's timeline was applied in arrival order regardless of shard
// count.
func assertJobstateOrdering(t *testing.T, a *archive.Archive) {
	t.Helper()
	states, err := a.Store().Select(relstore.Query{Table: archive.TJobState})
	if err != nil {
		t.Fatal(err)
	}
	type last struct {
		seq int64
		ts  time.Time
	}
	byInst := map[int64]last{}
	// Select returns rows in primary-key order = insertion order per
	// instance, so walking them verifies both seq contiguity and ts
	// monotonicity.
	c := &a.Columns().JobState
	for _, r := range states {
		inst := r.Int(c.JobInstanceID)
		seq := r.Int(c.SubmitSeq)
		ts := r.Time(c.Timestamp)
		prev, seen := byInst[inst]
		if seen {
			if seq != prev.seq+1 {
				t.Fatalf("instance %d: jobstate seq jumped %d -> %d", inst, prev.seq, seq)
			}
			if ts.Before(prev.ts) {
				t.Fatalf("instance %d: jobstate timeline went backwards: %v after %v", inst, ts, prev.ts)
			}
		} else if seq != 0 {
			t.Fatalf("instance %d: first jobstate seq = %d, want 0", inst, seq)
		}
		byInst[inst] = last{seq, ts}
	}
	if len(byInst) == 0 {
		t.Fatal("no jobstate rows to check")
	}
}

// foldLines is the loader's oracle, deliberately not a loader: each line
// goes through bp.ParseBytes, the schema validator and archive.Apply, one
// event at a time on the calling goroutine, and whatever any of the three
// rejects is skipped.
func foldLines(t *testing.T, a *archive.Archive, lines [][]byte) {
	t.Helper()
	val, err := schema.NewValidator()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		ev, err := bp.ParseBytes(line)
		if err != nil {
			continue
		}
		if val.Validate(ev) == nil {
			_ = a.Apply(ev)
		}
		bp.ReleaseEvent(ev)
	}
}

func archiveHash(t *testing.T, a *archive.Archive) string {
	t.Helper()
	sn := a.Snapshot()
	defer sn.Close()
	h, err := sn.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestParallelLoadMatchesSequential checks the pipeline at every width
// against the foldLines oracle: the same row counts and per-workflow
// ordering at any width, and at width one — a single applier in arrival
// order — the very same store, primary keys included.
func TestParallelLoadMatchesSequential(t *testing.T) {
	const workflows = 9
	var streams []string
	for i := 0; i < workflows; i++ {
		streams = append(streams, workflowStream(uuid.New().String(), 6))
	}
	input := interleavedStream(streams)

	ref := archive.NewInMemory()
	foldLines(t, ref, bytes.Split([]byte(strings.TrimSpace(input)), []byte("\n")))
	want := tableCounts(t, ref)
	assertJobstateOrdering(t, ref)

	for _, shards := range []int{1, 2, 4, 8} {
		a := archive.NewInMemoryN(shards)
		l, err := New(a, Options{Shards: shards, BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := l.LoadReader(strings.NewReader(input))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		wantEvents := uint64(workflows * (3 + 6*5))
		if stats.Read != wantEvents || stats.Loaded != wantEvents {
			t.Fatalf("shards=%d: stats=%+v, want read=loaded=%d", shards, stats, wantEvents)
		}
		if len(stats.Shards) != shards {
			t.Fatalf("shards=%d: got %d shard stats", shards, len(stats.Shards))
		}
		var sum uint64
		for _, ss := range stats.Shards {
			sum += ss.Applied
		}
		if sum != stats.Loaded {
			t.Fatalf("shards=%d: shard applied sum %d != loaded %d", shards, sum, stats.Loaded)
		}
		counts := tableCounts(t, a)
		for table, n := range want {
			if counts[table] != n {
				t.Errorf("shards=%d: table %s = %d rows, the fold has %d", shards, table, counts[table], n)
			}
		}
		assertJobstateOrdering(t, a)
		if shards == 1 {
			if got, want := archiveHash(t, a), archiveHash(t, ref); got != want {
				t.Errorf("width-1 pipeline hashed %s, the fold %s", got, want)
			}
		}
	}
}

// TestParallelSubworkflowLinkage loads hierarchical traces — where a
// child workflow's plan event references its parent's uuid, and parent
// and child route to different shards — and checks that sharding never
// loses the parent link: a regression test for plan events whose parent
// row had not been materialised yet when they applied.
func TestParallelSubworkflowLinkage(t *testing.T) {
	var streams []string
	roots := map[string]bool{}
	for seed := int64(1); seed <= 2; seed++ {
		tr := synth.Generate(synth.Config{Seed: seed, Jobs: 12, SubWorkflows: 4})
		var b strings.Builder
		if _, err := tr.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, b.String())
		roots[tr.RootUUID] = true
	}
	input := interleavedStream(streams)

	var want map[string]int
	for _, shards := range []int{1, 4, 8} {
		a := archive.NewInMemoryN(shards)
		l, err := New(a, Options{Shards: shards, BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.LoadReader(strings.NewReader(input)); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		counts := tableCounts(t, a)
		if want == nil {
			want = counts
		} else {
			for table, n := range want {
				if counts[table] != n {
					t.Errorf("shards=%d: table %s = %d rows, want %d", shards, table, counts[table], n)
				}
			}
		}
		wfs, err := a.Store().Select(relstore.Query{Table: archive.TWorkflow})
		if err != nil {
			t.Fatal(err)
		}
		if len(wfs) != 2*(1+4) {
			t.Fatalf("shards=%d: %d workflow rows, want %d", shards, len(wfs), 2*(1+4))
		}
		c := &a.Columns().Workflow
		for _, wf := range wfs {
			uuid := wf.Str(c.UUID)
			if roots[uuid] {
				continue
			}
			if wf.IsNull(c.ParentID) {
				t.Errorf("shards=%d: sub-workflow %s lost its parent link (parent_wf_id is NULL)", shards, uuid)
			}
		}
	}
}

// TestConsumeShardedStress is the satellite stress test: K workflows
// published concurrently from G goroutines through the bus into a sharded
// Consume, asserting final archive row counts and per-workflow jobstate
// ordering.
func TestConsumeShardedStress(t *testing.T) {
	const (
		K       = 12 // workflows
		G       = 4  // publisher goroutines
		jobs    = 5
		perWF   = 3 + jobs*5
		expects = K * perWF
	)
	broker := mq.NewBroker()
	q, err := broker.DeclareQueue("stampede", mq.QueueOpts{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.Bind("stampede", "stampede.#"); err != nil {
		t.Fatal(err)
	}
	a := archive.NewInMemoryN(4)
	l, err := New(a, Options{Shards: 4, BatchSize: 8, FlushEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	l.queueDepth = 32

	loadDone := make(chan struct{})
	var stats Stats
	var loadErr error
	go func() {
		defer close(loadDone)
		stats, loadErr = l.ConsumeQueue(context.Background(), q)
	}()

	// Each publisher goroutine owns K/G workflows and publishes their
	// lines in order; ordering only matters per workflow, so concurrent
	// publishers are exactly the multi-engine scenario of the paper.
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < K; k += G {
				wf := fmt.Sprintf("%08d-1111-2222-3333-444455556666", k)
				for _, line := range strings.Split(strings.TrimSpace(workflowStream(wf, jobs)), "\n") {
					ev, err := bp.Parse(line)
					if err != nil {
						t.Errorf("parse: %v", err)
						return
					}
					broker.Publish(ev.Type, []byte(line))
				}
			}
		}(g)
	}
	wg.Wait()

	// Wait for the loader to drain the queue, then end the stream.
	deadline := time.Now().Add(10 * time.Second)
	for a.Applied() < expects {
		if time.Now().After(deadline) {
			t.Fatalf("archive stuck at %d/%d events", a.Applied(), expects)
		}
		time.Sleep(time.Millisecond)
	}
	broker.DeleteQueue("stampede")
	<-loadDone
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	if stats.Loaded != expects {
		t.Fatalf("loaded %d, want %d", stats.Loaded, expects)
	}
	counts := tableCounts(t, a)
	if counts[archive.TWorkflow] != K {
		t.Errorf("workflows = %d, want %d", counts[archive.TWorkflow], K)
	}
	if counts[archive.TJob] != K*jobs {
		t.Errorf("jobs = %d, want %d", counts[archive.TJob], K*jobs)
	}
	if counts[archive.TInvocation] != K*jobs {
		t.Errorf("invocations = %d, want %d", counts[archive.TInvocation], K*jobs)
	}
	// SUBMIT, EXECUTE, SUCCESS per instance.
	if counts[archive.TJobState] != K*jobs*3 {
		t.Errorf("jobstates = %d, want %d", counts[archive.TJobState], K*jobs*3)
	}
	assertJobstateOrdering(t, a)
}

// TestManualClockFlushNoSleep proves the FlushEvery path is deflaked: a
// reader that delivers one line and then blocks gives the loader no way to
// know nothing more is coming, so with a huge batch size only the tick can
// apply the event — and with a Manual clock it does as soon as the virtual
// clock crosses the interval. No real time passes, so the test cannot be
// timing-dependent.
func TestManualClockFlushNoSleep(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			clock := wfclock.NewManual(t0)
			a := archive.NewInMemoryN(shards)
			l, err := New(a, Options{
				BatchSize:  100000,
				FlushEvery: time.Hour,
				Shards:     shards,
				Clock:      clock,
			})
			if err != nil {
				t.Fatal(err)
			}
			pr, pw := io.Pipe()
			loadDone := make(chan struct{})
			go func() {
				defer close(loadDone)
				_, _ = l.LoadReader(pr)
			}()
			wf := uuid.New().String()
			ev := bp.New(schema.XwfStart, t0).Set(schema.AttrXwfID, wf).SetInt("restart_count", 0)
			if _, err := io.WriteString(pw, ev.Format()+"\n"); err != nil {
				t.Fatal(err)
			}
			// Advance virtual time until the shard has both buffered the
			// event and seen a tick. Yielding (not sleeping) lets the
			// pipeline's goroutines run between advances.
			deadline := time.Now().Add(5 * time.Second)
			for a.Applied() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("virtual-clock tick did not flush the batch")
				}
				clock.Advance(2 * time.Hour)
				runtime.Gosched()
			}
			if n, _ := a.Store().Count(archive.TWorkflowState); n != 1 {
				t.Fatalf("workflowstate rows = %d, want 1", n)
			}
			pw.Close()
			<-loadDone
		})
	}
}

// TestParallelConsumeCancelFlushes: whatever ends Consume's reading
// mid-stream — the caller cancelling, or the Tap failing — stops the
// reading and nothing else. Whatever was read off the channel — parked in
// a shard's queue, in the shard's hand being validated, or in a batch
// buffer — is still applied or counted in a reject bucket, and flushed:
// the store ends up exactly the fold of the first Read lines. Validation
// is on and the queues are short, so at the moment of the stop every
// shard is holding events at every one of those places.
func TestParallelConsumeCancelFlushes(t *testing.T) {
	const workflows = 40
	var streams []string
	for i := 0; i < workflows; i++ {
		streams = append(streams, workflowStream(uuid.New().String(), 8))
	}
	lines := bytes.Split([]byte(strings.TrimSpace(interleavedStream(streams))), []byte("\n"))
	// A schema-invalid line every so often, so the Invalid bucket is part
	// of the balance.
	bad := []byte("ts=2012-03-13T12:35:38.000000Z event=stampede.xwf.start xwf.id=" + uuid.New().String())
	for i := 50; i < len(lines); i += 97 {
		lines[i] = bad
	}
	tapErr := errors.New("disk full")

	for _, shards := range []int{1, 4} {
		for _, tapFails := range []bool{false, true} {
			for run := 0; run < 20; run++ {
				name := fmt.Sprintf("shards=%d tapFails=%v run %d", shards, tapFails, run)
				msgs := make(chan mq.Message, len(lines))
				for _, ln := range lines {
					msgs <- mq.Message{Body: ln}
				}
				a := archive.NewInMemoryN(shards)
				// Both stops come once the pipeline is in full flow.
				inFlow := func() bool { return a.Applied() >= 64 }
				opts := Options{Shards: shards, Lenient: true,
					BatchSize: 8, FlushEvery: time.Hour}
				// Either stop is raised from the Tap, that is on the reading
				// goroutine between two messages: the short queues hold the
				// reader within a batch or so of what has been applied, so the
				// stop lands mid-stream however the goroutines are scheduled.
				ctx, cancel := context.WithCancel(context.Background())
				wantErr := context.Canceled
				opts.Tap = func([]byte) error {
					if inFlow() {
						cancel()
					}
					return nil
				}
				if tapFails {
					wantErr = tapErr
					opts.Tap = func([]byte) error {
						if inFlow() {
							return tapErr
						}
						return nil
					}
				}
				l, err := New(a, opts)
				if err != nil {
					t.Fatal(err)
				}
				l.queueDepth = 2
				st, err := l.Consume(ctx, msgs)
				cancel()
				if !errors.Is(err, wantErr) {
					t.Fatalf("%s: err = %v, want %v", name, err, wantErr)
				}
				if st.Read == 0 || st.Read+st.Malformed >= uint64(len(lines)) {
					t.Fatalf("%s: the stop was not mid-stream: %s", name, st.String())
				}
				if st.Read != st.Loaded+st.Invalid+st.Unknown {
					t.Fatalf("%s: %d events read but not accounted for: %s",
						name, st.Read-st.Loaded-st.Invalid-st.Unknown, st.String())
				}
				ref := archive.NewInMemory()
				foldLines(t, ref, lines[:st.Read])
				got := tableCounts(t, a)
				for table, n := range tableCounts(t, ref) {
					if got[table] != n {
						t.Fatalf("%s: table %s = %d rows, the fold of the first %d lines has %d",
							name, table, got[table], st.Read, n)
					}
				}
			}
		}
	}
}

// TestParallelStrictFailure checks strict-mode error propagation through
// the pipeline: a schema-invalid event fails the load.
func TestParallelStrictFailure(t *testing.T) {
	a := archive.NewInMemoryN(4)
	l, _ := New(a, Options{Shards: 4})
	wf := uuid.New().String()
	input := workflowStream(wf, 2) +
		"ts=2012-03-13T12:35:38.000000Z event=stampede.xwf.start xwf.id=" + uuid.New().String() + "\n" // no restart_count
	stats, err := l.LoadReader(strings.NewReader(input))
	if err == nil {
		t.Fatal("invalid event loaded in strict sharded mode")
	}
	if stats.Invalid != 1 {
		t.Fatalf("stats = %+v, want invalid=1", stats)
	}
}
