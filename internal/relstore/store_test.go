package relstore

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func wfSchema() TableSchema {
	return TableSchema{
		Name: "workflow",
		Columns: []Column{
			{Name: "wf_uuid", Type: Str},
			{Name: "dax_label", Type: Str, Nullable: true},
			{Name: "submit_hostname", Type: Str, Nullable: true},
			{Name: "ts", Type: Time},
		},
		Indexes: [][]string{{"wf_uuid"}, {"submit_hostname"}},
	}
}

func jobSchema() TableSchema {
	return TableSchema{
		Name: "job",
		Columns: []Column{
			{Name: "wf_id", Type: Int},
			{Name: "exec_job_id", Type: Str},
			{Name: "runtime", Type: Float, Nullable: true},
			{Name: "done", Type: Bool, Nullable: true},
		},
		Indexes: [][]string{{"wf_id"}},
	}
}

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	if err := s.CreateTable(wfSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(jobSchema()); err != nil {
		t.Fatal(err)
	}
	return s
}

var now = time.Date(2012, 3, 13, 12, 35, 38, 0, time.UTC)

func TestInsertGetRoundTrip(t *testing.T) {
	s := newTestStore(t)
	id, err := ins(s, "workflow", vals{"wf_uuid": "u1", "dax_label": "dart", "ts": now})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("first id = %d", id)
	}
	row, err := s.Get("workflow", id)
	if err != nil {
		t.Fatal(err)
	}
	if get(row, "wf_uuid") != "u1" || get(row, "dax_label") != "dart" {
		t.Fatalf("row = %v", row)
	}
	if ts := get(row, "ts").(time.Time); !ts.Equal(now) {
		t.Fatalf("ts = %v", ts)
	}
	if get(row, "submit_hostname") != nil {
		t.Fatalf("absent nullable column = %v, want nil", get(row, "submit_hostname"))
	}
	if missing, err := s.Get("workflow", 99); err != nil || missing != nil {
		t.Fatalf("Get(99) = %v, %v", missing, err)
	}
}

func TestInsertTypeErrors(t *testing.T) {
	s := newTestStore(t)
	cases := []vals{
		{"wf_uuid": 42, "ts": now},                  // int into string
		{"wf_uuid": "u", "ts": "not-a-time"},        // bad time string
		{"wf_uuid": "u"},                            // missing required ts
		{"wf_uuid": nil, "ts": now},                 // null into non-nullable
		{"wf_uuid": "u", "ts": now, "ghost": 1},     // unknown column
		{"wf_uuid": "u", "ts": now, "id": int64(5)}, // id is assigned, not an error but ignored
	}
	for i, r := range cases[:5] {
		if _, err := ins(s, "workflow", r); err == nil {
			t.Errorf("case %d: insert succeeded, want error", i)
		}
	}
	if id, err := ins(s, "workflow", cases[5]); err != nil || id != 1 {
		t.Errorf("explicit id not ignored: id=%d err=%v", id, err)
	}
}

func TestUpdate(t *testing.T) {
	s := newTestStore(t)
	wf, _ := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	jid, _ := ins(s, "job", vals{"wf_id": wf, "exec_job_id": "a"})
	if err := upd(s, "job", jid, vals{"runtime": 74.0, "done": true}); err != nil {
		t.Fatal(err)
	}
	row, _ := s.Get("job", jid)
	if get(row, "runtime") != 74.0 || get(row, "done") != true {
		t.Fatalf("row after update = %v", row)
	}
	if err := upd(s, "job", jid, vals{"id": int64(9)}); err == nil {
		t.Error("pk update accepted")
	}
	if err := upd(s, "job", 999, vals{"runtime": 1.0}); err == nil {
		t.Error("update of missing row accepted")
	}
	if err := upd(s, "job", jid, vals{"exec_job_id": nil}); err == nil {
		t.Error("null into non-nullable accepted on update")
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	s := newTestStore(t)
	id1, _ := ins(s, "workflow", vals{"wf_uuid": "u1", "submit_hostname": "h1", "ts": now})
	id2, _ := ins(s, "workflow", vals{"wf_uuid": "u2", "submit_hostname": "h1", "ts": now})
	if err := upd(s, "workflow", id1, vals{"submit_hostname": "h2"}); err != nil {
		t.Fatal(err)
	}
	rows, err := s.Select(Query{Table: "workflow", Conds: []Cond{Eq("submit_hostname", "h1")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].ID() != id2 {
		t.Fatalf("index stale after update: %v", rows)
	}
	// The wf_uuid index moves too: after u1 is renamed away and another
	// row takes it, the index names that row alone.
	if err := upd(s, "workflow", id1, vals{"wf_uuid": "u9"}); err != nil {
		t.Fatal(err)
	}
	if err := upd(s, "workflow", id2, vals{"wf_uuid": "u1"}); err != nil {
		t.Fatal(err)
	}
	row, err := s.SelectOne(Query{Table: "workflow", Conds: []Cond{Eq("wf_uuid", "u1")}})
	if err != nil || row == nil || row.ID() != id2 {
		t.Fatalf("wf_uuid=u1 after the hand-off: %v, %v; want row %d", row, err, id2)
	}
}

func TestCreateTableValidation(t *testing.T) {
	s := NewStore()
	bad := []TableSchema{
		{Name: ""},
		{Name: "t", Columns: []Column{{Name: "id", Type: Int}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: Int}, {Name: "a", Type: Str}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: Int}}, Indexes: [][]string{{"ghost"}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: Int}}, Indexes: [][]string{{}}},
	}
	for i, sch := range bad {
		if err := s.CreateTable(sch); err == nil {
			t.Errorf("case %d: bad schema accepted", i)
		}
	}
	good := wfSchema()
	if err := s.CreateTable(good); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(good); err != nil {
		t.Errorf("idempotent re-create failed: %v", err)
	}
	good.Columns = good.Columns[1:]
	good.Indexes = nil
	if err := s.CreateTable(good); err == nil || !strings.Contains(err.Error(), "different columns") {
		t.Errorf("conflicting re-create: %v", err)
	}
}

// TestCreateTableReindexes: a table is its name and columns, so creating it
// again with another index list replaces its indexes. Every row, and every
// version a snapshot still reads, is found through the new indexes; the
// new list is what the directory records, so a reopen needs no re-create.
func TestCreateTableReindexes(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	sch := jobSchema()
	if err := s.CreateTable(sch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := insW(s.Writer(i%2), "job", vals{"wf_id": int64(i % 3), "exec_job_id": fmt.Sprint("j", i)}); err != nil {
			t.Fatal(err)
		}
	}
	old := s.Snapshot()
	defer old.Close()
	if err := updW(s.Writer(0), "job", 1, vals{"exec_job_id": "moved"}); err != nil {
		t.Fatal(err)
	}
	sch.Indexes = [][]string{{"exec_job_id"}, {"wf_id", "exec_job_id"}}
	if err := s.CreateTable(sch); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Reader{s, old} {
		for _, conds := range [][]Cond{
			{Eq("exec_job_id", "j0")}, {Eq("exec_job_id", "moved")},
			{Eq("wf_id", int64(0)), Eq("exec_job_id", "j3")}, {Eq("wf_id", int64(1))},
		} {
			indexed, err := r.Select(Query{Table: "job", Conds: conds})
			if err != nil {
				t.Fatal(err)
			}
			scanned, err := r.Select(Query{Table: "job", Where: func(row *Row) bool {
				for _, c := range conds {
					if get(row, c.Column) != c.Value {
						return false
					}
				}
				return true
			}})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(indexed) != fmt.Sprint(scanned) {
				t.Errorf("%v: indexed %v, scanned %v", conds, indexed, scanned)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, p := range re.parts {
		if got := p.tables.Load().byName["job"].ixs.Load().decl; fmt.Sprint(got) != fmt.Sprint(sch.Indexes) {
			t.Fatalf("partition %d reopened with indexes %v, want %v", p.idx, got, sch.Indexes)
		}
	}
}

func TestConcurrentInsertsAndReads(t *testing.T) {
	s := newTestStore(t)
	wf, _ := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	var wg sync.WaitGroup
	const writers, per = 4, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, err := ins(s, "job", vals{
					"wf_id":       wf,
					"exec_job_id": strings.Repeat("x", w+1) + "-" + string(rune('0'+i%10)) + string(rune('0'+i/10)),
				})
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Select(Query{Table: "job", Conds: []Cond{Eq("wf_id", wf)}}); err != nil {
					t.Errorf("select: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n, _ := s.Count("job"); n != writers*per {
		t.Fatalf("count = %d, want %d", n, writers*per)
	}
}

// TestGetReturnsCopy: Get hands out the stored version itself, which is safe
// because nothing can change it — a stored row has no setters, and a Draft
// wrapped around one refuses to write.
func TestGetReturnsCopy(t *testing.T) {
	s := newTestStore(t)
	id, _ := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	row, _ := s.Get("workflow", id)
	d := Draft{row: row}
	fill(&d, row.Layout(), vals{"wf_uuid": "mutated"})
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "immutable") {
		t.Fatalf("setting a column of a stored row: %v, want it refused", d.Err())
	}
	again, _ := s.Get("workflow", id)
	if get(again, "wf_uuid") != "u1" {
		t.Fatal("Get leaked internal row reference")
	}
}
