package relstore

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// writeTrace is what a write leaves behind: the epoch it publishes, the WAL
// record it appends and the primary key it takes.
type writeTrace struct {
	epoch, walSeq uint64
	nextID        int64
}

func traceOf(s *Store, table string) writeTrace {
	p := s.parts[0]
	w := p.wal.Load()
	w.mu.Lock()
	defer w.mu.Unlock()
	return writeTrace{epoch: p.epoch.Load(), walSeq: w.seq, nextID: p.tables.Load().byName[table].alloc.Load()}
}

// TestRefusedWritesLeaveNothing: every way the typed write surface can be
// misused returns an error and writes nothing — no id allocated, no epoch
// published, no WAL record — and the store takes the next good row as if
// the bad one had never been offered.
func TestRefusedWritesLeaveNothing(t *testing.T) {
	s := openDirStore(t, t.TempDir(), 1)
	defer s.Close()
	for _, sch := range []TableSchema{wfSchema(), jobSchema()} {
		if err := s.CreateTable(sch); err != nil {
			t.Fatal(err)
		}
	}
	w := s.Writer(0)
	wf, job := s.Layout("workflow"), s.Layout("job")
	col := func(lay *Layout, name string) Col {
		c, err := lay.Col(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	uuid, ts := col(wf, "wf_uuid"), col(wf, "ts")
	good := func() Draft {
		d := w.NewRow(wf)
		d.SetStr(uuid, fmt.Sprintf("u%d", traceOf(s, "workflow").nextID))
		d.SetTime(ts, now)
		return d
	}
	first := good()
	id, err := w.Insert(&first)
	if err != nil || id != 1 {
		t.Fatalf("first insert: id %d, %v", id, err)
	}

	other := NewStore()
	if err := other.CreateTable(wfSchema()); err != nil {
		t.Fatal(err)
	}
	// before is the trace the refused write must leave unchanged; the two
	// cases that make a good update on the way re-take it after that.
	var before writeTrace
	cases := []struct {
		name    string
		write   func() error
		wantErr string
	}{
		{"typed setter on a column of another type", func() error {
			d := good()
			d.SetInt(uuid, 7)
			_, err := w.Insert(&d)
			return err
		}, "workflow.wf_uuid: a int value set on a string column"},
		{"column of another table's layout", func() error {
			d := good()
			d.SetInt(col(job, "wf_id"), 1)
			_, err := w.Insert(&d)
			return err
		}, "column job.wf_id is not a column of table workflow"},
		{"the primary key", func() error {
			d := good()
			d.SetInt(col(wf, "id"), 9)
			_, err := w.Insert(&d)
			return err
		}, "the primary key is assigned by the table"},
		{"missing required column", func() error {
			d := w.NewRow(wf)
			d.SetStr(uuid, "no-ts")
			_, err := w.Insert(&d)
			return err
		}, "relstore: table workflow: column ts is required"},
		{"NULL into a non-nullable column", func() error {
			d := good()
			d.SetNull(ts)
			_, err := w.Insert(&d)
			return err
		}, "relstore: table workflow: column ts may not be null"},
		{"second Insert of an inserted row", func() error {
			_, err := w.Insert(&first)
			return err
		}, "Insert takes a draft from NewRow, once"},
		{"Update of an insert draft", func() error {
			d := good()
			return w.Update(&d)
		}, "Update takes a draft from Edit, once"},
		{"Insert of an edit draft", func() error {
			d := w.Edit(wf, 1)
			_, err := w.Insert(&d)
			return err
		}, "Insert takes a draft from NewRow, once"},
		{"Edit of a row that does not exist", func() error {
			d := w.Edit(wf, 99)
			d.SetStr(uuid, "ghost")
			return w.Update(&d)
		}, "workflow has no row 99"},
		{"second Update of one edit", func() error {
			d := w.Edit(wf, 1)
			d.SetStr(col(wf, "dax_label"), "once")
			if err := w.Update(&d); err != nil {
				t.Fatal(err)
			}
			before = traceOf(s, "workflow")
			return w.Update(&d)
		}, "Update takes a draft from Edit, once"},
		{"edit overtaken by another update", func() error {
			stale := w.Edit(wf, 1)
			stale.SetStr(col(wf, "dax_label"), "stale")
			fresh := w.Edit(wf, 1)
			fresh.SetStr(col(wf, "dax_label"), "fresh")
			if err := w.Update(&fresh); err != nil {
				t.Fatal(err)
			}
			before = traceOf(s, "workflow")
			return w.Update(&stale)
		}, "workflow row 1 changed after Edit"},
		{"layout of another store", func() error {
			d := w.NewRow(other.Layout("workflow"))
			_, err := w.Insert(&d)
			return err
		}, "the layout of table workflow belongs to another store"},
		{"layout of no table", func() error {
			d := w.NewRow(s.Layout("ghost"))
			_, err := w.Insert(&d)
			return err
		}, "no layout"},
		{"a zero Draft", func() error {
			var d Draft
			d.SetStr(uuid, "u")
			_, err := w.Insert(&d)
			return err
		}, "a Draft comes from Writer.NewRow or Writer.Edit"},
		{"time before the UnixNano range", func() error {
			d := good()
			d.SetTime(ts, time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC))
			_, err := w.Insert(&d)
			return err
		}, "workflow.ts: time 1600-01-01T00:00:00Z is outside the representable range"},
		{"time after the UnixNano range", func() error {
			d := good()
			d.SetTime(ts, time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC))
			_, err := w.Insert(&d)
			return err
		}, "workflow.ts: time 2300-01-01T00:00:00Z is outside the representable range"},
		{"the zero time", func() error {
			d := good()
			d.SetTime(ts, time.Time{})
			_, err := w.Insert(&d)
			return err
		}, "workflow.ts: time 0001-01-01T00:00:00Z is outside the representable range"},
		{"unrepresentable time on an update", func() error {
			d := w.Edit(wf, 1)
			d.SetTime(ts, time.Time{})
			return w.Update(&d)
		}, "workflow.ts: time 0001-01-01T00:00:00Z is outside the representable range"},
	}
	for _, tc := range cases {
		before = traceOf(s, "workflow")
		err := tc.write()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want one saying %q", tc.name, err, tc.wantErr)
		}
		if after := traceOf(s, "workflow"); after != before {
			t.Errorf("%s: the refused write left %+v, was %+v", tc.name, after, before)
		}
	}

	next := good()
	if id, err := w.Insert(&next); err != nil || id != 2 {
		t.Fatalf("insert after the refusals: id %d, %v; want 2", id, err)
	}
	if n, _ := s.Count("workflow"); n != 2 {
		t.Fatalf("%d workflow rows, want 2", n)
	}

	// A schema wider than the NULL bitmap never becomes a table.
	wide := TableSchema{Name: "wide"}
	for i := 0; i <= maxColumns; i++ {
		wide.Columns = append(wide.Columns, Column{Name: fmt.Sprintf("c%d", i), Type: Int, Nullable: true})
	}
	before = traceOf(s, "workflow")
	if err := s.CreateTable(wide); err == nil || !strings.Contains(err.Error(), "table wide has 65 columns; a row's NULL bitmap holds 64") {
		t.Errorf("65-column schema: %v, want it refused", err)
	}
	if s.Layout("wide") != nil || traceOf(s, "workflow") != before {
		t.Error("the refused schema left a table or a WAL record behind")
	}
	wide.Columns = wide.Columns[:maxColumns]
	if err := s.CreateTable(wide); err != nil {
		t.Fatalf("64-column schema: %v", err)
	}
	d := w.NewRow(s.Layout("wide"))
	d.SetInt(col(s.Layout("wide"), "c63"), -63)
	if id, err := w.Insert(&d); err != nil {
		t.Fatal(err)
	} else if row, _ := s.Get("wide", id); get(row, "c63") != int64(-63) || get(row, "c62") != nil {
		t.Fatalf("64th column: c63=%v c62=%v", get(row, "c63"), get(row, "c62"))
	}
}

// TestTimeIsItsInstant: a Time slot holds the instant, so the zone a time
// was built in never reaches Hash, a query or the disk — and the live store
// and the one recovered from its files answer alike at both ends of the
// representable range, where the map-based rows kept a time.Time in memory
// that the codec wrapped into a different instant on disk.
func TestTimeIsItsInstant(t *testing.T) {
	min := time.Unix(0, -1<<63)
	max := time.Unix(0, 1<<63-1)
	zoned := time.Date(2012, 3, 13, 14, 35, 38, 5, time.FixedZone("CEST", 2*3600))
	hashOf := func(times ...time.Time) (string, *Store, string) {
		dir := t.TempDir()
		s := openDirStore(t, dir, 1)
		if err := s.CreateTable(wfSchema()); err != nil {
			t.Fatal(err)
		}
		for i, ts := range times {
			if _, err := ins(s, "workflow", vals{"wf_uuid": fmt.Sprint(i), "ts": ts}); err != nil {
				t.Fatalf("insert %v: %v", ts, err)
			}
		}
		return storeHash(t, s), s, dir
	}
	hZoned, s, dir := hashOf(zoned, min, max)
	hUTC, s2, _ := hashOf(zoned.UTC(), min.UTC(), max.UTC())
	defer s2.Close()
	if hZoned != hUTC {
		t.Fatalf("a zoned time hashed %s, its UTC instant %s", hZoned, hUTC)
	}
	rows, err := s.Select(Query{Table: "workflow", Conds: []Cond{Eq("ts", zoned.In(time.FixedZone("PST", -8*3600)))}})
	if err != nil || len(rows) != 1 || rows[0].ID() != 1 {
		t.Fatalf("Eq on the same instant in a third zone: %v, %v", rows, err)
	}
	if got := get(rows[0], "ts").(time.Time); !got.Equal(zoned) || got.Location() != time.UTC {
		t.Fatalf("stored time reads back %v, want %v in UTC", got, zoned.UTC())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openDirStore(t, dir, 1)
	defer re.Close()
	if got := storeHash(t, re); got != hZoned {
		t.Fatalf("recovered hash %s, live %s", got, hZoned)
	}
	for id, want := range map[int64]time.Time{2: min, 3: max} {
		row, err := re.Get("workflow", id)
		if err != nil || row == nil || !get(row, "ts").(time.Time).Equal(want) {
			t.Fatalf("recovered row %d: %v, %v; want ts %v", id, row, err, want)
		}
	}
	if _, err := re.Select(Query{Table: "workflow", Conds: []Cond{Eq("ts", time.Time{})}}); err == nil ||
		!strings.Contains(err.Error(), "outside the representable range") {
		t.Fatalf("Eq on an unrepresentable time: %v, want it refused", err)
	}
}

// TestCondsCompileOncePerSelect: a condition value is converted to the
// column's slot form when the Select starts, not per candidate row, so a
// wrongly typed value fails the Select with the same message whether an
// index covers the conditions or every row is scanned (where it used to
// match nothing, silently, row after row), Eq(col, nil) still means IS
// NULL on both paths, and numeric widening is unchanged.
func TestCondsCompileOncePerSelect(t *testing.T) {
	s := newTestStore(t)
	wf, _ := ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now, "submit_hostname": "desktop"})
	ins(s, "workflow", vals{"wf_uuid": "u2", "ts": now})
	for i := 0; i < 3; i++ {
		r := vals{"wf_id": wf, "exec_job_id": fmt.Sprintf("j%d", i)}
		if i > 0 {
			r["runtime"], r["done"] = float64(i), i == 2
		}
		if _, err := ins(s, "job", r); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		table   string
		conds   []Cond
		wantErr string
	}{
		{"job", []Cond{Eq("wf_id", "one")}, "relstore: job.wf_id: value one (string) is not a int"},                         // indexed
		{"job", []Cond{Eq("wf_id", 1.5)}, "relstore: job.wf_id: value 1.5 (float64) is not a int"},                          // indexed
		{"job", []Cond{Eq("exec_job_id", 7)}, "relstore: job.exec_job_id: value 7 (int) is not a string"},                   // scan
		{"job", []Cond{Eq("done", "yes")}, "relstore: job.done: value yes (string) is not a bool"},                          // scan
		{"job", []Cond{Eq("runtime", true)}, "relstore: job.runtime: value true (bool) is not a float"},                     // scan
		{"job", []Cond{Eq("wf_id", wf), Eq("runtime", "x")}, "relstore: job.runtime: value x (string) is not a float"},      // scan, second cond
		{"workflow", []Cond{Eq("ts", "yesterday")}, "relstore: workflow.ts: value yesterday (string) is not a time"},        // scan
		{"workflow", []Cond{Eq("wf_uuid", int64(1))}, "relstore: workflow.wf_uuid: value 1 (int64) is not a string"},        // unique index
		{"workflow", []Cond{Eq("submit_hostname", 3)}, "relstore: workflow.submit_hostname: value 3 (int) is not a string"}, // index
	} {
		if _, err := s.Select(Query{Table: tc.table, Conds: tc.conds}); err == nil || err.Error() != tc.wantErr {
			t.Errorf("%s %v: error %v, want %q", tc.table, tc.conds, err, tc.wantErr)
		}
	}
	count := func(table string, conds ...Cond) int {
		t.Helper()
		rows, err := s.Select(Query{Table: table, Conds: conds})
		if err != nil {
			t.Fatalf("%s %v: %v", table, conds, err)
		}
		return len(rows)
	}
	for _, tc := range []struct {
		name string
		got  int
		want int
	}{
		{"IS NULL through an index", count("workflow", Eq("submit_hostname", nil)), 1},
		{"IS NULL on a scan", count("job", Eq("runtime", nil)), 1},
		{"IS NULL beside an indexed cond", count("job", Eq("wf_id", wf), Eq("done", nil)), 1},
		{"int widens to int64", count("job", Eq("wf_id", int(wf))), 3},
		{"integral float64 is an int", count("job", Eq("wf_id", float64(wf))), 3},
		{"int64 widens to float", count("job", Eq("runtime", int64(2))), 1},
		{"bool", count("job", Eq("done", false)), 1},
		{"RFC 3339 string is a time", count("workflow", Eq("ts", now.Format(time.RFC3339Nano))), 2},
		{"the primary key", count("job", Eq("id", int64(2))), 1},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: %d rows, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// BenchmarkScanWithConds times a full scan that re-checks two conditions on
// every row: what converting the values once per Select, not once per row,
// pays for.
func BenchmarkScanWithConds(b *testing.B) {
	s := NewStore()
	if err := s.CreateTable(wfSchema()); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if _, err := ins(s, "workflow", vals{"wf_uuid": fmt.Sprint(i), "ts": now, "dax_label": fmt.Sprint(i % 100)}); err != nil {
			b.Fatal(err)
		}
	}
	q := Query{Table: "workflow", Conds: []Cond{Eq("dax_label", "42"), Eq("ts", now)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows, err := s.Select(q); err != nil || len(rows) != 200 {
			b.Fatalf("%d rows, %v", len(rows), err)
		}
	}
}
