package loader

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/uuid"
)

// loaderGoroutines counts the goroutines running, or created by, this
// package's non-test code.
func loaderGoroutines(t *testing.T) (n int) {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
		t.Fatal(err)
	}
	for _, g := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(g, "repro/internal/loader.") || strings.Contains(g, "testing.tRunner") {
			continue
		}
		n++
	}
	return n
}

// TestPipelineGoroutines: a pipeline of width N is N goroutines — one per
// shard, applying (the archive validating) — beside the caller's parse
// stage.
func TestPipelineGoroutines(t *testing.T) {
	// A finished pipeline's goroutines are gone a moment after the
	// wg.Done that finish waits for, so "none" is waited for, briefly.
	quiesce := func(when string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); loaderGoroutines(t) != 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d loader goroutines %s", loaderGoroutines(t), when)
			}
		}
	}
	l, err := New(archive.NewInMemoryN(4), Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	quiesce("before the pipeline starts")
	p := l.newPipeline()
	started := loaderGoroutines(t)
	if _, err := p.finish(t0); err != nil {
		t.Fatal(err)
	}
	if started != 4 {
		t.Fatalf("a width-4 pipeline started %d goroutines, want 4", started)
	}
	quiesce("after finish")
}

// TestValidationThroughTheOneStage drives schema-invalid events through the
// shard goroutine, whose archive validates each event as it applies it,
// lenient and strict, at width one and four. Each bad line is an xwf.start
// without its restart_count under a workflow uuid of its own — an event
// the fold alone would happily materialise — so a path that committed
// anything unvalidated shows up as rows the validating oracle does not
// have.
//
// Lenient: the load succeeds, every bad event is counted once and released
// once (the event pool's gets and returns balance over the load), and the
// store is the oracle's fold of the whole stream. Strict: the first bad
// event fails the load and is the only one counted; the rest of its batch,
// and everything handed to a shard before the parser saw the abort, is
// still validated, committed and released, so the store is the oracle's
// fold of exactly the lines read, whichever shard they were queued in.
// Per-workflow order holds in both.
func TestValidationThroughTheOneStage(t *testing.T) {
	const workflows = 12
	var streams []string
	for i := 0; i < workflows; i++ {
		streams = append(streams, workflowStream(uuid.New().String(), 8))
	}
	clean := bytes.Split([]byte(strings.TrimSpace(interleavedStream(streams))), []byte("\n"))
	badLine := func() []byte {
		return []byte("ts=2012-03-13T12:35:38.000000Z event=stampede.xwf.start xwf.id=" + uuid.New().String())
	}
	for _, tc := range []struct {
		lenient bool
		bad     []int // positions, in the clean stream, a bad line goes in front of
	}{
		{lenient: true, bad: []int{40, 137, 138, 300}},
		{lenient: false, bad: []int{len(clean) / 2}},
	} {
		var lines [][]byte
		next := 0
		for i, ln := range clean {
			if next < len(tc.bad) && tc.bad[next] == i {
				lines = append(lines, badLine())
				next++
			}
			lines = append(lines, ln)
		}
		input := append(bytes.Join(lines, []byte("\n")), '\n')
		for _, shards := range []int{1, 4} {
			name := fmt.Sprintf("lenient=%v shards=%d", tc.lenient, shards)
			a := archive.NewInMemoryN(shards)
			l, err := New(a, Options{Lenient: tc.lenient, Shards: shards, BatchSize: 16})
			if err != nil {
				t.Fatal(err)
			}
			// Short queues hold the parser close behind the shards, so the
			// strict abort lands mid-stream rather than after the last line.
			l.queueDepth = 4
			hits0, misses0, returns0 := bp.PoolStats()
			st, err := l.LoadReader(bytes.NewReader(input))
			hits1, misses1, returns1 := bp.PoolStats()
			if gets, returns := hits1+misses1-hits0-misses0, returns1-returns0; gets != returns || gets < st.Read {
				t.Errorf("%s: %d events taken from the pool, %d returned, %d read", name, gets, returns, st.Read)
			}
			settled := st.Loaded + st.Invalid + st.Unknown
			if tc.lenient {
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if st.Read != uint64(len(lines)) || settled != st.Read || st.Invalid != uint64(len(tc.bad)) {
					t.Fatalf("%s: %s; want read=%d invalid=%d and nothing unaccounted", name, st.String(), len(lines), len(tc.bad))
				}
			} else {
				if err == nil || !strings.Contains(err.Error(), "restart_count") {
					t.Fatalf("%s: err = %v, want the validator's complaint about restart_count", name, err)
				}
				// The event in the parser's hand when the abort lands is
				// counted as read and released unrouted; nothing else may
				// be missing.
				if st.Invalid != 1 || st.Read-settled > 1 || st.Read >= uint64(len(lines)) || settled <= uint64(tc.bad[0]) {
					t.Fatalf("%s: %s; want invalid=1, at most one event unrouted, and a stop mid-stream past line %d", name, st.String(), tc.bad[0])
				}
			}
			if a.Applied() != st.Loaded {
				t.Fatalf("%s: archive applied %d, loader loaded %d", name, a.Applied(), st.Loaded)
			}
			ref := archive.NewInMemory()
			foldLines(t, ref, lines[:settled])
			got := tableCounts(t, a)
			for table, n := range tableCounts(t, ref) {
				if got[table] != n {
					t.Fatalf("%s: table %s = %d rows, the validating fold of the first %d lines has %d",
						name, table, got[table], settled, n)
				}
			}
			assertJobstateOrdering(t, a)
		}
	}
}
