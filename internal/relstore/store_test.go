package relstore

import (
	"errors"
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
		Unique:  [][]string{{"wf_uuid"}},
		Indexes: [][]string{{"submit_hostname"}},
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
		Unique:      [][]string{{"wf_id", "exec_job_id"}},
		Indexes:     [][]string{{"wf_id"}},
		ForeignKeys: []ForeignKey{{Column: "wf_id", RefTable: "workflow", RefColumn: "id"}},
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

func TestUniqueConstraint(t *testing.T) {
	s := newTestStore(t)
	if _, err := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now}); err != nil {
		t.Fatal(err)
	}
	_, err := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	var ue *UniqueError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UniqueError", err)
	}
	if ue.Table != "workflow" || ue.ExistingID != 1 {
		t.Fatalf("UniqueError = %+v", ue)
	}

	// Hand-off: A renamed off u1 frees it, B takes it, and A's rename back
	// collides with B — the current holder, not A's own stale index entry.
	const a = 1
	if err := upd(s, "workflow", a, vals{"dax_label": "x"}); err != nil {
		t.Fatalf("update leaving the unique key alone collided with itself: %v", err)
	}
	if err := upd(s, "workflow", a, vals{"wf_uuid": "u2"}); err != nil {
		t.Fatal(err)
	}
	b, err := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	if err != nil {
		t.Fatalf("insert onto a vacated key refused: %v", err)
	}
	err = upd(s, "workflow", a, vals{"wf_uuid": "u1"})
	if !errors.As(err, &ue) || ue.ExistingID != b {
		t.Fatalf("rename back onto a re-taken key: err = %v, want UniqueError naming row %d", err, b)
	}
	if err := upd(s, "workflow", b, vals{"dax_label": "y"}); err != nil {
		t.Fatalf("update leaving the unique key alone collided with itself: %v", err)
	}
}

func TestCompositeUniqueAcrossColumns(t *testing.T) {
	s := newTestStore(t)
	wf, _ := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	if _, err := ins(s, "job", vals{"wf_id": wf, "exec_job_id": "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ins(s, "job", vals{"wf_id": wf, "exec_job_id": "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ins(s, "job", vals{"wf_id": wf, "exec_job_id": "a"}); err == nil {
		t.Fatal("composite duplicate accepted")
	}
	// Length-prefixed keys: ("a","bc") vs ("ab","c") must not collide.
	if _, err := ins(s, "job", vals{"wf_id": wf, "exec_job_id": "x"}); err != nil {
		t.Fatal(err)
	}
}

func TestForeignKeyEnforced(t *testing.T) {
	s := newTestStore(t)
	_, err := ins(s, "job", vals{"wf_id": int64(7), "exec_job_id": "a"})
	var fe *FKError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want FKError", err)
	}
	if n, _ := s.Count("job"); n != 0 {
		t.Fatalf("rejected insert left %d rows", n)
	}
	wf, err := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins(s, "job", vals{"wf_id": wf, "exec_job_id": "a"}); err != nil {
		t.Fatalf("insert with a satisfied FK: %v", err)
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
	// Unique index must move too: reusing u1 fails, but the old slot frees
	// after an update away from it.
	if err := upd(s, "workflow", id2, vals{"wf_uuid": "u1"}); err == nil {
		t.Fatal("duplicate unique value accepted after update")
	}
	if err := upd(s, "workflow", id1, vals{"wf_uuid": "u9"}); err != nil {
		t.Fatal(err)
	}
	if err := upd(s, "workflow", id2, vals{"wf_uuid": "u1"}); err != nil {
		t.Fatalf("unique slot not freed by update: %v", err)
	}
}

func TestCreateTableValidation(t *testing.T) {
	s := NewStore()
	bad := []TableSchema{
		{Name: ""},
		{Name: "t", Columns: []Column{{Name: "id", Type: Int}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: Int}, {Name: "a", Type: Str}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: Int}}, Unique: [][]string{{"ghost"}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: Int}}, Indexes: [][]string{{}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: Int}}, ForeignKeys: []ForeignKey{{Column: "ghost"}}},
	}
	for i, sch := range bad {
		if err := s.CreateTable(sch); err == nil {
			t.Errorf("case %d: bad schema accepted", i)
		}
	}
	// A foreign key may only reference a primary key.
	err := s.CreateTable(TableSchema{Name: "job", Columns: []Column{{Name: "wf", Type: Str}},
		ForeignKeys: []ForeignKey{{Column: "wf", RefTable: "workflow", RefColumn: "wf_uuid"}}})
	if want := "relstore: table job foreign key wf references workflow.wf_uuid: only a primary key (id) can be referenced"; err == nil || err.Error() != want {
		t.Errorf("foreign key on a non-primary column: err = %v, want %q", err, want)
	}
	good := wfSchema()
	if err := s.CreateTable(good); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(good); err != nil {
		t.Errorf("idempotent re-create failed: %v", err)
	}
	good.Indexes = nil
	if err := s.CreateTable(good); err == nil || !strings.Contains(err.Error(), "different schema") {
		t.Errorf("conflicting re-create: %v", err)
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
