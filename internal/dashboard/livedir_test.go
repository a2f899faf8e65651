package dashboard

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/archive"
	"repro/internal/loader"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/views"
)

// TestReadersOverLoadDirOfLiveWriter runs what stampede-statistics,
// stampede-analyzer and stampede-dashboard do with a directory — LoadDir,
// then queries, statistics, analysis, views and HTTP over the result —
// while a 4-shard loader is writing hierarchical workflows into it and
// checkpointing every 64 records. A load is a prefix of each partition,
// not one cut across them, so a sub-workflow can be loaded before its
// parent and a job instance before its host row: every reader has to take
// that without an error or a panic.
func TestReadersOverLoadDirOfLiveWriter(t *testing.T) {
	const traces = 12
	dir := t.TempDir()
	a, err := archive.OpenDir(dir, relstore.Options{Partitions: 4, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	l, err := loader.New(a, loader.Options{Shards: 4, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	written := make(chan struct{})
	go func() {
		defer close(written)
		for seed := int64(1); seed <= traces; seed++ {
			var b strings.Builder
			tr := synth.Generate(synth.Config{Seed: seed, Jobs: 40, SubWorkflows: 4, FailureRate: 0.1, MaxRetries: 1})
			if _, err := tr.WriteTo(&b); err != nil {
				t.Error(err)
				return
			}
			if _, err := l.LoadReader(strings.NewReader(b.String())); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// read is one reader process's worth of work; it returns the number of
	// root workflows it saw, or -1 when the load lost its race with the
	// writer's checkpoint three times over (the binaries report that and
	// try again).
	read := func() int {
		ro, err := archive.LoadDir(dir)
		if err != nil {
			if strings.Contains(err.Error(), "changed during load") {
				return -1
			}
			t.Errorf("LoadDir: %v", err)
			return -1
		}
		q, release := query.New(ro).Snapshot()
		defer release()
		roots, err := q.RootWorkflows()
		if err != nil {
			t.Errorf("RootWorkflows: %v", err)
		}
		for _, wf := range roots {
			if _, err := stats.Compute(q, wf.ID, true); err != nil {
				t.Errorf("stats.Compute(%s): %v", wf.UUID, err)
			}
			if _, err := stats.Breakdown(q, wf.ID, true); err != nil {
				t.Errorf("stats.Breakdown(%s): %v", wf.UUID, err)
			}
			if _, err := analyzer.Analyze(q, wf.ID, true); err != nil {
				t.Errorf("analyzer.Analyze(%s): %v", wf.UUID, err)
			}
		}
		v := views.New(views.Options{})
		defer v.Close()
		sn := ro.Snapshot()
		err = v.BuildFromSnapshot(sn)
		sn.Close()
		if err != nil {
			t.Errorf("views.BuildFromSnapshot: %v", err)
		}
		srv := New(query.New(ro))
		srv.SetViews(v)
		paths := []string{"/", "/api/workflows"}
		for _, wf := range roots {
			for _, report := range []string{"", "/statistics", "/jobs", "/progress", "/analyzer", "/gantt", "/hosts"} {
				paths = append(paths, "/api/workflow/"+wf.UUID+report)
			}
		}
		for _, path := range paths {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
			}
		}
		return len(roots)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	loads := 0
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !t.Failed() {
				select {
				case <-written:
					return
				default:
				}
				if read() >= 0 {
					mu.Lock()
					loads++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	<-written
	t.Logf("%d reader passes over a live directory", loads)
	if loads == 0 {
		t.Fatal("no load ever succeeded against the live loader")
	}
	if got := read(); got != traces {
		t.Fatalf("the quiescent directory shows %d root workflows, want %d", got, traces)
	}
}
