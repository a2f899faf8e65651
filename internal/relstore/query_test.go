package relstore

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func seedJobs(t *testing.T, s *Store, wf int64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := ins(s, "job", vals{
			"wf_id":       wf,
			"exec_job_id": fmt.Sprintf("job-%03d", i),
			"runtime":     float64(i % 10),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelectByIndexedColumn(t *testing.T) {
	s := newTestStore(t)
	wf1, _ := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	wf2, _ := ins(s, "workflow", vals{"wf_uuid": "u2", "ts": now})
	seedJobs(t, s, wf1, 20)
	seedJobs(t, s, wf2, 5)
	rows, err := s.Select(Query{Table: "job", Conds: []Cond{Eq("wf_id", wf1)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("got %d rows, want 20", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].ID() <= rows[i-1].ID() {
			t.Fatal("indexed select not in pk order")
		}
	}
}

func TestSelectByUniqueColumn(t *testing.T) {
	s := newTestStore(t)
	_, _ = ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	row, err := s.SelectOne(Query{Table: "workflow", Conds: []Cond{Eq("wf_uuid", "u1")}})
	if err != nil || row == nil {
		t.Fatalf("SelectOne = %v, %v", row, err)
	}
	none, err := s.SelectOne(Query{Table: "workflow", Conds: []Cond{Eq("wf_uuid", "ghost")}})
	if err != nil || none != nil {
		t.Fatalf("SelectOne(ghost) = %v, %v", none, err)
	}
}

func TestSelectOneAmbiguous(t *testing.T) {
	s := newTestStore(t)
	wf, _ := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	seedJobs(t, s, wf, 3)
	if _, err := s.SelectOne(Query{Table: "job", Conds: []Cond{Eq("wf_id", wf)}}); err == nil {
		t.Fatal("ambiguous SelectOne succeeded")
	}
}

func TestSelectScanWithWhere(t *testing.T) {
	s := newTestStore(t)
	wf, _ := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	seedJobs(t, s, wf, 30)
	rows, err := s.Select(Query{
		Table: "job",
		Where: func(r *Row) bool { return get(r, "runtime").(float64) >= 8 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // runtimes cycle 0..9 over 30 rows; 8,9 appear 3x each
		t.Fatalf("got %d rows, want 6", len(rows))
	}
}

func TestSelectOrderByAndLimit(t *testing.T) {
	s := newTestStore(t)
	wf, _ := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	seedJobs(t, s, wf, 25)
	rows, err := s.Select(Query{Table: "job", OrderBy: "runtime"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 25 {
		t.Fatalf("got %d rows, want 25", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if get(rows[i], "runtime").(float64) < get(rows[i-1], "runtime").(float64) {
			t.Fatal("ascending order violated")
		}
	}
	if _, err := s.Select(Query{Table: "job", OrderBy: "ghost"}); err == nil {
		t.Fatal("order by unknown column accepted")
	}
}

func TestSelectTimeOrdering(t *testing.T) {
	s := newTestStore(t)
	base := now
	for i := 4; i >= 0; i-- {
		_, err := ins(s, "workflow", vals{"wf_uuid": fmt.Sprintf("u%d", i), "ts": base.Add(time.Duration(i) * time.Minute)})
		if err != nil {
			t.Fatal(err)
		}
	}
	rows, err := s.Select(Query{Table: "workflow", OrderBy: "ts"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if get(rows[i], "ts").(time.Time).Before(get(rows[i-1], "ts").(time.Time)) {
			t.Fatal("time ordering violated")
		}
	}
}

func TestSelectErrors(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.Select(Query{Table: "ghost"}); err == nil {
		t.Error("select from unknown table accepted")
	}
	if _, err := s.Select(Query{Table: "job", Conds: []Cond{Eq("ghost", 1)}}); err == nil {
		t.Error("condition on unknown column accepted")
	}
}

func TestSelectIndexedEqualsScanProperty(t *testing.T) {
	// Property: for random data, an indexed equality query returns exactly
	// the rows a full scan with the same predicate returns.
	s := newTestStore(t)
	wfIDs := make([]int64, 5)
	for i := range wfIDs {
		wfIDs[i], _ = ins(s, "workflow", vals{"wf_uuid": fmt.Sprintf("u%d", i), "ts": now})
	}
	n := 0
	f := func(picks []uint8) bool {
		for _, p := range picks {
			wf := wfIDs[int(p)%len(wfIDs)]
			n++
			if _, err := ins(s, "job", vals{"wf_id": wf, "exec_job_id": fmt.Sprintf("j%05d", n)}); err != nil {
				return false
			}
		}
		for _, wf := range wfIDs {
			indexed, err := s.Select(Query{Table: "job", Conds: []Cond{Eq("wf_id", wf)}})
			if err != nil {
				return false
			}
			target := wf
			scanned, err := s.Select(Query{Table: "job", Where: func(r *Row) bool { return get(r, "wf_id") == target }})
			if err != nil {
				return false
			}
			if len(indexed) != len(scanned) {
				return false
			}
			for i := range indexed {
				if indexed[i].ID() != scanned[i].ID() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
