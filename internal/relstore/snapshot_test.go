package relstore

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestSnapshotPointInTime: a snapshot keeps seeing the state at its epoch
// while the live store moves on through inserts and updates, including an
// update that moves a row to another unique key.
func TestSnapshotPointInTime(t *testing.T) {
	s := newTestStore(t)
	wf, err := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := ins(s, "job", vals{"wf_id": wf, "exec_job_id": "a", "runtime": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := ins(s, "job", vals{"wf_id": wf, "exec_job_id": "b", "runtime": 2.0})
	if err != nil {
		t.Fatal(err)
	}

	sn := s.Snapshot()
	defer sn.Close()

	// Mutate after the snapshot: update j1, rename j2, insert j3.
	if err := upd(s, "job", j1, vals{"runtime": 99.0}); err != nil {
		t.Fatal(err)
	}
	if err := upd(s, "job", j2, vals{"exec_job_id": "z"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ins(s, "job", vals{"wf_id": wf, "exec_job_id": "c"}); err != nil {
		t.Fatal(err)
	}

	// The snapshot still sees the original two rows with original values.
	row, err := sn.Get("job", j1)
	if err != nil || row == nil {
		t.Fatalf("snapshot Get(j1) = %v, %v", row, err)
	}
	if rt := get(row, "runtime").(float64); rt != 1.0 {
		t.Fatalf("snapshot sees runtime %v, want pre-update 1.0", rt)
	}
	byOldKey := Query{Table: "job", Conds: []Cond{Eq("wf_id", wf), Eq("exec_job_id", "b")}}
	if row, err := sn.SelectOne(byOldKey); err != nil || row == nil || row.ID() != j2 {
		t.Fatalf("snapshot lost the renamed row under its old key: %v, %v", row, err)
	}
	if n, err := sn.Count("job"); err != nil || n != 2 {
		t.Fatalf("snapshot Count = %d, %v, want 2", n, err)
	}
	rows, err := sn.Select(Query{Table: "job", Conds: []Cond{Eq("wf_id", wf)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("snapshot indexed Select = %d rows, want 2", len(rows))
	}

	// The live store sees the new state.
	live, err := s.Get("job", j1)
	if err != nil {
		t.Fatal(err)
	}
	if rt := get(live, "runtime").(float64); rt != 99.0 {
		t.Fatalf("live store sees runtime %v, want 99.0", rt)
	}
	if row, _ := s.SelectOne(byOldKey); row != nil {
		t.Fatalf("live store still finds the renamed row under its old key: %v", row)
	}
	if n, _ := s.Count("job"); n != 3 {
		t.Fatalf("live Count = %d, want 3", n)
	}

	// A fresh snapshot sees the new state too.
	sn2 := s.Snapshot()
	defer sn2.Close()
	if row, _ := sn2.SelectOne(byOldKey); row != nil {
		t.Fatalf("new snapshot finds the renamed row under its old key: %v", row)
	}
	if row, _ := sn2.Get("job", j2); row == nil || get(row, "exec_job_id") != "z" {
		t.Fatalf("new snapshot Get(j2) = %v, want the renamed row", row)
	}
}

// TestSelectOrderDeterministic: indexed, unique-probe and scan paths all
// return rows in primary-key order, even when rows were inserted out of
// index-key order and updated in between (regression for ordering drift
// between the index path and the scan path).
func TestSelectOrderDeterministic(t *testing.T) {
	s := newTestStore(t)
	wf, err := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	if err != nil {
		t.Fatal(err)
	}
	// Insert with exec_job_id values deliberately out of order relative to
	// assigned primary keys.
	names := []string{"z", "m", "a", "q", "b"}
	ids := make([]int64, len(names))
	for i, name := range names {
		id, err := ins(s, "job", vals{"wf_id": wf, "exec_job_id": name})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// Churn: update two rows so their index postings are re-created (a
	// naive newest-first posting walk would move them to the front).
	if err := upd(s, "job", ids[0], vals{"runtime": 1.5}); err != nil {
		t.Fatal(err)
	}
	if err := upd(s, "job", ids[2], vals{"runtime": 2.5}); err != nil {
		t.Fatal(err)
	}

	assertPKOrder := func(label string, rows []*Row, wantLen int) {
		t.Helper()
		if len(rows) != wantLen {
			t.Fatalf("%s: %d rows, want %d", label, len(rows), wantLen)
		}
		for i := 1; i < len(rows); i++ {
			if rows[i-1].ID() >= rows[i].ID() {
				t.Fatalf("%s: ids out of order: %d before %d", label, rows[i-1].ID(), rows[i].ID())
			}
		}
	}

	// Indexed path (wf_id is indexed on the job table).
	rows, err := s.Select(Query{Table: "job", Conds: []Cond{Eq("wf_id", wf)}})
	if err != nil {
		t.Fatal(err)
	}
	assertPKOrder("indexed", rows, len(names))

	// Scan path (no index covers runtime).
	rows, err = s.Select(Query{Table: "job"})
	if err != nil {
		t.Fatal(err)
	}
	assertPKOrder("scan", rows, len(names))

	// Same guarantees through a snapshot.
	sn := s.Snapshot()
	defer sn.Close()
	rows, err = sn.Select(Query{Table: "job", Conds: []Cond{Eq("wf_id", wf)}})
	if err != nil {
		t.Fatal(err)
	}
	assertPKOrder("snapshot indexed", rows, len(names))
	rows, err = sn.Select(Query{Table: "job"})
	if err != nil {
		t.Fatal(err)
	}
	assertPKOrder("snapshot scan", rows, len(names))
}

// TestSnapshotCrossTableConsistency: a snapshot is a point in time across
// all tables, so reading the child table before the parent table (the
// torn-read direction) still resolves every foreign key. The writer is
// paced by the reader — one workflow and its three jobs per snapshot round,
// started the moment before the snapshot is taken so the two race — which
// keeps the tables (and the full scans of them) bounded by the round count
// whatever the machine or the race detector do to the writer's speed.
func TestSnapshotCrossTableConsistency(t *testing.T) {
	s := newTestStore(t)
	w := s.Writer(0)
	round := make(chan int)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range round {
			wf, err := insW(w, "workflow", vals{"wf_uuid": fmt.Sprintf("u%d", i), "ts": now})
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 3; j++ {
				if _, err := insW(w, "job", vals{"wf_id": wf, "exec_job_id": fmt.Sprintf("j%d", j)}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	defer wg.Wait()
	defer close(round)
	for r := 0; r < 200; r++ {
		select {
		case round <- r:
		default: // the writer is still inside the previous round: race that one
		}
		sn := s.Snapshot()
		// Deliberately read children first, parents second: without a
		// point-in-time view this is the racy order.
		jobs, err := sn.Select(Query{Table: "job"})
		if err != nil {
			t.Fatal(err)
		}
		wfs, err := sn.Select(Query{Table: "workflow"})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int64]bool, len(wfs))
		for _, w := range wfs {
			seen[w.ID()] = true
		}
		for _, j := range jobs {
			if !seen[get(j, "wf_id").(int64)] {
				t.Fatalf("torn read: job %d references workflow %v missing from the same snapshot",
					j.ID(), get(j, "wf_id"))
			}
		}
		sn.Close()
	}
}

// TestUpdateDeleteVsSnapshotStress: concurrent snapshots racing Update
// always observe internally consistent rows — the two columns every Update
// writes in lockstep never diverge, a row read twice within one snapshot
// never changes, and while the writer moves rows back and forth between two
// keys of an indexed column, a Select through that index returns exactly
// what a scan of the same snapshot returns. Run with -race. (The name
// predates the removal of delete from the store; the update half is what
// remains.)
func TestUpdateDeleteVsSnapshotStress(t *testing.T) {
	s := newTestStore(t)
	var wfs [2]int64
	for i := range wfs {
		id, err := ins(s, "workflow", vals{"wf_uuid": fmt.Sprintf("u%d", i), "ts": now})
		if err != nil {
			t.Fatal(err)
		}
		wfs[i] = id
	}
	const nRows = 8
	ids := make([]int64, nRows)
	for i := range ids {
		id, err := ins(s, "job", vals{"wf_id": wfs[0], "exec_job_id": fmt.Sprintf("j%d", i), "runtime": 0.0, "done": false})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: runtime and done move in lockstep; every third update also flips the indexed wf_id
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			changes := vals{"runtime": float64(i), "done": i%2 == 0}
			if i%3 == 0 {
				changes["wf_id"] = wfs[(i/3)%2]
			}
			if err := upd(s, "job", ids[i%nRows], changes); err != nil {
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
			for k := 0; k < 300; k++ {
				sn := s.Snapshot()
				rows, err := sn.Select(Query{Table: "job"})
				if err != nil {
					t.Error(err)
					sn.Close()
					return
				}
				for _, row := range rows {
					i := int(get(row, "runtime").(float64))
					if i != 0 && get(row, "done").(bool) != (i%2 == 0) {
						t.Errorf("torn row: runtime=%d done=%v", i, get(row, "done"))
					}
					// Re-read within the same snapshot: must be identical.
					again, err := sn.Get("job", row.ID())
					if err != nil || again == nil {
						t.Errorf("row %d vanished within its snapshot: %v, %v", row.ID(), again, err)
						continue
					}
					if get(again, "runtime").(float64) != get(row, "runtime").(float64) {
						t.Errorf("row %d changed within one snapshot", row.ID())
					}
				}
				// Index vs scan inside the same snapshot, for both keys the
				// writer moves rows between.
				held := 0
				for _, wf := range wfs {
					wf := wf
					indexed, err := sn.Select(Query{Table: "job", Conds: []Cond{Eq("wf_id", wf)}})
					if err != nil {
						t.Error(err)
						break
					}
					scanned, err := sn.Select(Query{Table: "job", Where: func(r *Row) bool { return get(r, "wf_id") == wf }})
					if err != nil {
						t.Error(err)
						break
					}
					if len(indexed)+len(scanned) > 0 && !reflect.DeepEqual(indexed, scanned) {
						t.Errorf("wf_id=%d: index and scan disagree within one snapshot\nindex: %v\nscan:  %v", wf, indexed, scanned)
					}
					held += len(indexed)
				}
				if held != nRows {
					t.Errorf("index holds %d of %d rows across both keys", held, nRows)
				}
				sn.Close()
			}
		}()
	}
	rwg.Wait()
	close(stop)
	wg.Wait()
}

// TestVersionGC: the writer reclaims a row's dead versions as it rewrites
// the row once no snapshot pins them, and retains them — still readable —
// while one does.
func TestVersionGC(t *testing.T) {
	s := newTestStore(t)
	wf, err := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	if err != nil {
		t.Fatal(err)
	}
	id, err := ins(s, "job", vals{"wf_id": wf, "exec_job_id": "a", "runtime": 0.0})
	if err != nil {
		t.Fatal(err)
	}

	// With no snapshot open, repeated updates must not grow the chain: the
	// writer prunes as it goes.
	before := mVersionReclaims.With("0").Value()
	for i := 1; i <= 50; i++ {
		if err := upd(s, "job", id, vals{"runtime": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := mVersionReclaims.With("0").Value(); got-before < 49 {
		t.Fatalf("reclaims grew by %d over 50 updates, want >= 49", got-before)
	}
	chainv, _ := s.parts[0].tables.Load().byName["job"].rows.Load(id)
	if n := chainLen(chainv); n > 2 {
		t.Fatalf("chain length %d after unpinned updates, want <= 2", n)
	}

	// An open snapshot pins its version: the chain grows, and the pinned
	// value stays readable.
	sn := s.Snapshot()
	pinned, err := sn.Get("job", id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 110; i++ {
		if err := upd(s, "job", id, vals{"runtime": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	again, err := sn.Get("job", id)
	if err != nil || again == nil {
		t.Fatalf("pinned read failed: %v, %v", again, err)
	}
	if get(again, "runtime").(float64) != get(pinned, "runtime").(float64) {
		t.Fatalf("pinned version changed: %v -> %v", get(pinned, "runtime"), get(again, "runtime"))
	}
	if n := chainLen(chainv); n < 2 {
		t.Fatalf("chain length %d while a snapshot pins history, want >= 2", n)
	}

	// Close the snapshot; the next write to the row reclaims.
	sn.Close()
	if err := upd(s, "job", id, vals{"runtime": 999.0}); err != nil {
		t.Fatal(err)
	}
	if n := chainLen(chainv); n > 2 {
		t.Fatalf("chain length %d after snapshot close + write, want <= 2", n)
	}
}

func chainLen(c *rowChain) int {
	n := 0
	for v := c.head.Load(); v != nil; v = v.prev.Load() {
		n++
	}
	return n
}

// TestSnapshotTableNames: the snapshot's table list is stable even if
// tables are created after it.
func TestSnapshotTableNames(t *testing.T) {
	s := newTestStore(t)
	sn := s.Snapshot()
	defer sn.Close()
	if err := s.CreateTable(TableSchema{Name: "late", Columns: []Column{{Name: "x", Type: Int, Nullable: true}}}); err != nil {
		t.Fatal(err)
	}
	for _, name := range sn.TableNames() {
		if name == "late" {
			t.Fatal("snapshot lists a table created after it")
		}
	}
	if len(s.TableNames()) != 3 {
		t.Fatalf("live TableNames = %v", s.TableNames())
	}
}

// TestSnapshotWALReplay: snapshots work identically on a store replayed
// from its WAL — replayed history lands at epoch 1 and update records
// resolve to the final state, including the keys a row moved away from.
func TestSnapshotWALReplay(t *testing.T) {
	dir := t.TempDir()
	s := openDirStore(t, dir, 1)
	if err := s.CreateTable(wfSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(jobSchema()); err != nil {
		t.Fatal(err)
	}
	wf, err := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := ins(s, "job", vals{"wf_id": wf, "exec_job_id": "a", "runtime": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := ins(s, "job", vals{"wf_id": wf, "exec_job_id": "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := upd(s, "job", j1, vals{"runtime": 42.0}); err != nil {
		t.Fatal(err)
	}
	if err := upd(s, "job", j2, vals{"exec_job_id": "z"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDirStore(t, dir, 1)
	defer re.Close()
	sn := re.Snapshot()
	defer sn.Close()
	row, err := sn.Get("job", j1)
	if err != nil || row == nil {
		t.Fatalf("replayed Get = %v, %v", row, err)
	}
	if rt := get(row, "runtime").(float64); rt != 42.0 {
		t.Fatalf("replayed runtime = %v, want 42.0", rt)
	}
	if row, _ := sn.SelectOne(Query{Table: "job", Conds: []Cond{Eq("wf_id", wf), Eq("exec_job_id", "b")}}); row != nil {
		t.Fatalf("replayed snapshot finds the renamed row under its old key: %v", row)
	}
	if row, _ := sn.SelectOne(Query{Table: "job", Conds: []Cond{Eq("wf_id", wf), Eq("exec_job_id", "z")}}); row == nil || row.ID() != j2 {
		t.Fatalf("replayed snapshot lost the renamed row: %v", row)
	}
	rows, err := sn.Select(Query{Table: "job", Conds: []Cond{Eq("wf_id", wf)}})
	if err != nil || len(rows) != 2 {
		t.Fatalf("replayed indexed Select = %v, %v", rows, err)
	}
}

// TestSnapshotAgeAndClose: Close is idempotent and unpins promptly.
func TestSnapshotAgeAndClose(t *testing.T) {
	s := newTestStore(t)
	sn := s.Snapshot()
	if sn.Epoch() != s.Epoch() {
		t.Fatalf("snapshot epoch %d != store epoch %d", sn.Epoch(), s.Epoch())
	}
	sn.Close()
	sn.Close() // idempotent
	if got := s.parts[0].minLive.Load(); got != ^uint64(0) {
		t.Fatalf("minLive after close = %d, want MaxUint64", got)
	}
	_ = time.Now // keep time imported for helpers above
}
