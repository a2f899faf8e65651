package loader

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/relstore"
	"repro/internal/uuid"
)

// TestPoolRecycleInvisibleToReaders drives the sharded pipeline — pooled
// parse, batch commit, ReleaseEvent after flush — while concurrent
// snapshot readers continuously re-read the committed rows and touch every
// byte of every string value. The pool contract says committed rows retain
// only the events' immutable strings, never the Event structs or Attrs
// arrays that recycling rewrites; if any row aliased recycled memory, the
// readers here would race with the pool's rewrites and the race detector
// flags it (run under -race, where this test carries its weight). The test
// also asserts that recycling actually happened, so a silently disabled
// pool cannot turn it into a vacuous pass.
func TestPoolRecycleInvisibleToReaders(t *testing.T) {
	// Interleave several workflows round-robin so both shards stay busy and
	// batches commit continuously while readers scan.
	const wfs = 6
	const jobsPerWF = 40
	streams := make([][]string, wfs)
	for i := range streams {
		s := workflowStream(uuid.New().String(), jobsPerWF)
		streams[i] = strings.Split(strings.TrimRight(s, "\n"), "\n")
	}
	var trace bytes.Buffer
	for i := 0; ; i++ {
		wrote := false
		for _, s := range streams {
			if i < len(s) {
				trace.WriteString(s[i])
				trace.WriteByte('\n')
				wrote = true
			}
		}
		if !wrote {
			break
		}
	}

	_, _, returns0 := bp.PoolStats()
	a := archive.NewInMemoryN(2)
	l, err := New(a, Options{BatchSize: 32, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scans atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := a.Snapshot()
				for _, tbl := range []string{archive.TJobState, archive.TInvocation, archive.TJob} {
					rows, err := sn.Select(relstore.Query{Table: tbl})
					if err != nil {
						t.Error(err)
						sn.Close()
						return
					}
					for _, row := range rows {
						for _, c := range row.Layout().Columns() {
							if c.Type() != relstore.Str {
								continue
							}
							s := row.Str(c)
							sum := 0
							for i := 0; i < len(s); i++ {
								sum += int(s[i])
							}
							if len(s) > 0 && sum == 0 {
								t.Errorf("table %s: string value of NULs, recycled memory leaked into a row", tbl)
							}
						}
					}
				}
				sn.Close()
				scans.Add(1)
			}
		}()
	}

	st, err := l.LoadReader(bytes.NewReader(trace.Bytes()))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(wfs * (3 + jobsPerW(jobsPerWF))); st.Loaded != want {
		t.Errorf("loaded %d events, want %d", st.Loaded, want)
	}
	if scans.Load() == 0 {
		t.Error("readers never completed a scan; the test observed nothing")
	}
	_, _, returns1 := bp.PoolStats()
	if returns1 == returns0 {
		t.Error("no events were recycled during the load; the test proved nothing")
	}
}

// jobsPerW counts the per-job events workflowStream emits (job.info,
// submit.start, main.start, inv.end, main.end).
func jobsPerW(n int) int { return 5 * n }
