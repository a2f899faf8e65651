package relstore

import (
	"fmt"
	"sync"
	"testing"
)

// concurrencySchemas is a minimal parent/child pair exercising the
// per-table locking plus FK read-locks.
func concurrencySchemas() []TableSchema {
	return []TableSchema{
		{
			Name: "parent",
			Columns: []Column{
				{Name: "name", Type: Str},
			},
			Unique: [][]string{{"name"}},
		},
		{
			Name: "child",
			Columns: []Column{
				{Name: "parent_id", Type: Int},
				{Name: "n", Type: Int},
			},
			ForeignKeys: []ForeignKey{{Column: "parent_id", RefTable: "parent", RefColumn: "id"}},
			Indexes:     [][]string{{"parent_id"}},
		},
	}
}

// TestConcurrentInsertBatchAcrossTables runs concurrent writers on two
// tables (with an FK between them) plus concurrent readers, all through one
// partition's writer; run under -race this checks the writer-mutex and
// lock-free-reader discipline end to end. (The name predates the removal of
// InsertBatch: the child writers insert their runs row by row.)
func TestConcurrentInsertBatchAcrossTables(t *testing.T) {
	s := NewStore()
	for _, ts := range concurrencySchemas() {
		if err := s.CreateTable(ts); err != nil {
			t.Fatal(err)
		}
	}
	const writers = 4
	const batches = 25
	const batchLen = 8

	// Pre-create one parent per writer so child inserts always have a
	// valid FK target.
	parentIDs := make([]int64, writers)
	for i := range parentIDs {
		id, err := ins(s, "parent", vals{"name": fmt.Sprintf("p%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		parentIDs[i] = id
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers*2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) { // child writer
			defer wg.Done()
			for b := 0; b < batches; b++ {
				for i := 0; i < batchLen; i++ {
					if _, err := ins(s, "child", vals{"parent_id": parentIDs[w], "n": int64(b*batchLen + i)}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) { // parent writer + reader
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if _, err := ins(s, "parent", vals{"name": fmt.Sprintf("p%d-%d", w, b)}); err != nil {
					errs <- err
					return
				}
				if _, err := s.Select(Query{Table: "child", Conds: []Cond{Eq("parent_id", parentIDs[w])}}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, _ := s.Count("child"); n != writers*batches*batchLen {
		t.Fatalf("child rows = %d, want %d", n, writers*batches*batchLen)
	}
	if n, _ := s.Count("parent"); n != writers+writers*batches {
		t.Fatalf("parent rows = %d, want %d", n, writers+writers*batches)
	}
}

// TestReadersNeverLoseRowsToGC: a row that exists continuously must be
// visible to every snapshot and every Store-level read, no matter how the
// writer churns its versions. Regression for the GC-horizon race: a reader
// that had loaded its epoch but not yet registered it could race a writer
// whose prune horizon had already advanced past that epoch, silently
// emptying the reader's view.
func TestReadersNeverLoseRowsToGC(t *testing.T) {
	s := NewStore()
	if err := s.CreateTable(concurrencySchemas()[0]); err != nil {
		t.Fatal(err)
	}
	id, err := ins(s, "parent", vals{"name": "pinned"})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() { // writer: tight updates move the prune horizon constantly
		defer wwg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := upd(s, "parent", id, vals{"name": fmt.Sprintf("v%d", i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var rwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for k := 0; k < 500; k++ {
				sn := s.Snapshot()
				if row, err := sn.Get("parent", id); err != nil || row == nil {
					t.Errorf("snapshot at epoch %d lost the row: %v, %v", sn.Epoch(), row, err)
					sn.Close()
					return
				}
				sn.Close()
				if row, err := s.Get("parent", id); err != nil || row == nil {
					t.Errorf("live Get lost the row: %v, %v", row, err)
					return
				}
				if rows, err := s.Select(Query{Table: "parent"}); err != nil || len(rows) != 1 {
					t.Errorf("live Select = %d rows, %v, want 1", len(rows), err)
					return
				}
			}
		}()
	}
	rwg.Wait()
	close(stop)
	wwg.Wait()
}

// TestConcurrentFlushGroupCommit checks that concurrent writers calling
// Flush against a synced WAL all return with their records durable, and
// that the WAL replays to the same state.
func TestConcurrentFlushGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s := openDirStore(t, dir, 1)
	if err := s.CreateTable(concurrencySchemas()[0]); err != nil {
		t.Fatal(err)
	}
	s.SetSync(true)

	const writers = 8
	const each = 20
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := ins(s, "parent", vals{"name": fmt.Sprintf("w%d-%d", w, i)}); err != nil {
					errs <- err
					return
				}
				if err := s.Flush(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	syncs := s.Syncs()
	if syncs == 0 || syncs > writers*each {
		t.Fatalf("syncs = %d, want 1..%d", syncs, writers*each)
	}
	t.Logf("group commit: %d Flush calls coalesced into %d fsyncs", writers*each, syncs)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDirStore(t, dir, 1)
	defer re.Close()
	if n, _ := re.Count("parent"); n != writers*each {
		t.Fatalf("replayed rows = %d, want %d", n, writers*each)
	}
}
