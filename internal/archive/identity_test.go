package archive

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bp"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/uuid"
)

// integrity fails t unless a's store passes CheckIntegrity.
func integrity(t *testing.T, a *Archive, what string) {
	t.Helper()
	sn := a.Snapshot()
	defer sn.Close()
	if err := CheckIntegrity(sn); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

func storeHash(t *testing.T, a *Archive) string {
	t.Helper()
	sn := a.Snapshot()
	defer sn.Close()
	h, err := sn.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func tableCounts(t *testing.T, a *Archive) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, ts := range Schemas() {
		n, err := a.Store().Count(ts.Name)
		if err != nil {
			t.Fatal(err)
		}
		out[ts.Name] = n
	}
	return out
}

// TestRestartReplayAcrossReopen: a workflow restart re-emits its static
// description, edges and finished invocations, possibly into a store the
// archive reopened meanwhile. Every re-emitted event finds the row it
// describes through the identity maps warmCaches rebuilt, is skipped and
// counted under its table, and the store holds exactly what it held.
func TestRestartReplayAcrossReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "archive")
	a, err := OpenDir(dir, relstore.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	wf := uuid.New().String()
	evs := append(emitWorkflow(wf),
		bp.New(schema.TaskEdge, t0).Set(schema.AttrXwfID, wf).Set(schema.AttrLevel, bp.LevelInfo).
			Set("parent.task.id", "t_stage").Set("child.task.id", "t_exec"))
	applyAll(t, a, evs)
	counts, hash := tableCounts(t, a), storeHash(t, a)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir, relstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var replay []*bp.Event
	for _, ev := range evs {
		switch ev.Type {
		case schema.WfPlan, schema.StaticStart, schema.TaskInfo, schema.JobInfo, schema.JobEdge,
			schema.MapTaskJob, schema.StaticEnd, schema.TaskEdge, schema.InvEnd:
			replay = append(replay, ev)
		}
	}
	want := map[string]uint64{TTask: 1, TJob: 2, TJobEdge: 1, TTaskEdge: 1, TInvocation: 2}
	before := map[string]uint64{}
	for table := range want {
		before[table] = mDuplicates.With(table).Value()
	}
	applyAll(t, re, replay)
	for table, n := range want {
		if got := mDuplicates.With(table).Value() - before[table]; got != n {
			t.Errorf("stampede_archive_duplicates_total{table=%q} rose by %d, want %d", table, got, n)
		}
	}
	if got := tableCounts(t, re); fmt.Sprint(got) != fmt.Sprint(counts) {
		t.Errorf("row counts after the replay %v, want %v", got, counts)
	}
	if got := storeHash(t, re); got != hash {
		t.Errorf("hash after the replay %s, want %s", got, hash)
	}
	integrity(t, re, "after the replay")
}

// invEnd is a complete stampede.inv.end of instance (j, 1) of workflow wf,
// sec seconds after t0, numbered id.
func invEnd(wf string, sec int, id int64) *bp.Event {
	ts := t0.Add(time.Duration(sec) * time.Second)
	return bp.New(schema.InvEnd, ts).Set(schema.AttrXwfID, wf).
		Set(schema.AttrJobID, "j").SetInt(schema.AttrJobInstID, 1).SetInt(schema.AttrInvID, id).
		Set(schema.AttrStartTime, ts.Format(bp.TimeFormat)).SetFloat(schema.AttrDur, 1).
		SetInt(schema.AttrExitcode, 0).Set(schema.AttrTransform, "x")
}

// without returns a copy of ev lacking the attribute key.
func without(ev *bp.Event, key string) *bp.Event {
	out := bp.New(ev.Type, ev.TS)
	for _, p := range ev.Attrs {
		if p.Key != key {
			out.Set(p.Key, p.Val)
		}
	}
	return out
}

// TestInvocationsWithoutIDAcrossReopen: inv.id is mandatory, so an inv.end
// without it is refused with the validator's error naming the leaf, in a
// fresh store and in a reopened one alike, and changes neither; the
// numbered invocations around it are stored under their own ids.
func TestInvocationsWithoutIDAcrossReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "archive")
	wf := uuid.New().String()
	for round := 0; round < 2; round++ {
		a, err := OpenDir(dir, relstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		applyAll(t, a, []*bp.Event{invEnd(wf, 2*round, int64(round))})
		before, applied := storeHash(t, a), a.Applied()
		idless := without(invEnd(wf, 2*round+1, 0), schema.AttrInvID)
		var verr *schema.ValidationError
		if err := a.Apply(idless); !errors.As(err, &verr) || !strings.Contains(err.Error(), `"inv.id"`) {
			t.Fatalf("round %d: id-less inv.end: err = %v, want the validator's refusal naming inv.id", round, err)
		}
		if got := storeHash(t, a); got != before || a.Applied() != applied {
			t.Fatalf("round %d: the refused event changed the store (hash %s, was %s)", round, got, before)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
	a, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := a.Store().Select(relstore.Query{Table: TInvocation, OrderBy: "task_submit_seq"})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []any
	for _, r := range rows {
		seqs = append(seqs, col(r, "task_submit_seq"))
	}
	if fmt.Sprint(seqs) != "[0 1]" {
		t.Fatalf("invocation task_submit_seqs %v, want [0 1]", seqs)
	}
	integrity(t, a, "after two sessions")
}

// TestInvocationNumberingIgnoresReopen: an invocation is identified by its
// instance and its inv.id alone, so the same events — inv.id 1, then 0,
// then 1 again (a restart's re-emission) — store the same rows in one
// session as with a close and reopen between any two of them: two
// invocations, numbered 0 and 1, the repeat skipped.
func TestInvocationNumberingIgnoresReopen(t *testing.T) {
	wf := uuid.New().String()
	evs := []*bp.Event{invEnd(wf, 0, 1), invEnd(wf, 1, 0), invEnd(wf, 2, 1)}
	// load applies evs[i] in session sessions[i], each session a fresh
	// OpenDir of dir, and returns the store as LoadDir reads it.
	load := func(sessions []int) *Archive {
		dir := filepath.Join(t.TempDir(), "archive")
		for s := 0; s <= sessions[len(sessions)-1]; s++ {
			a, err := OpenDir(dir, relstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, ev := range evs {
				if sessions[i] == s {
					applyAll(t, a, []*bp.Event{ev})
				}
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
		}
		a, err := LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	var want string
	for _, sessions := range [][]int{{0, 0, 0}, {0, 1, 1}, {0, 0, 1}, {0, 1, 2}} {
		a := load(sessions)
		rows, err := a.Store().Select(relstore.Query{Table: TInvocation, OrderBy: "task_submit_seq"})
		if err != nil {
			t.Fatal(err)
		}
		var seqs []any
		for _, r := range rows {
			seqs = append(seqs, col(r, "task_submit_seq"))
		}
		if fmt.Sprint(seqs) != "[0 1]" {
			t.Errorf("sessions %v: task_submit_seqs %v, want [0 1]", sessions, seqs)
		}
		integrity(t, a, fmt.Sprintf("sessions %v", sessions))
		if h := storeHash(t, a); want == "" {
			want = h
		} else if h != want {
			t.Errorf("sessions %v: hash %s, one session hashes %s", sessions, h, want)
		}
	}
}

// copyRow inserts a copy of r through w, with the columns in set replaced.
func copyRow(t *testing.T, w relstore.Writer, r *relstore.Row, set map[string]int64) {
	t.Helper()
	lay := r.Layout()
	d := w.NewRow(lay)
	for _, c := range lay.Columns() {
		v, ok := set[c.Name()]
		switch {
		case ok:
			d.SetInt(c, v)
		case r.IsNull(c):
			d.SetNull(c)
		case c.Type() == relstore.Int:
			d.SetInt(c, r.Int(c))
		case c.Type() == relstore.Float:
			d.SetFloat(c, r.Float(c))
		case c.Type() == relstore.Str:
			d.SetStr(c, r.Str(c))
		case c.Type() == relstore.Bool:
			d.SetBool(c, r.Bool(c))
		default:
			d.SetTime(c, r.Time(c))
		}
	}
	if _, err := w.Insert(&d); err != nil {
		t.Fatal(err)
	}
}

// TestCheckIntegrityNamesViolations is the integrity check's mutation test.
// relstore takes any row, so a row written straight through a Writer can
// break what the archive keeps true: for every declared reference, a copy
// of a row that names an id no row has; for every identity, a copy of a
// row with its key. The check must name each, and pass the store before.
func TestCheckIntegrityNamesViolations(t *testing.T) {
	fixture := func() (*Archive, map[string]*relstore.Row) {
		a := NewInMemory()
		wf := uuid.New().String()
		applyAll(t, a, append(emitWorkflow(wf),
			bp.New(schema.TaskEdge, t0).Set(schema.AttrXwfID, wf).Set("parent.task.id", "a").Set("child.task.id", "b"),
			bp.New(schema.WfPlan, t0).Set(schema.AttrXwfID, uuid.New().String()).Set(schema.AttrParentXwf, wf).
				Set("submit.hostname", "desktop").Set(schema.AttrRootXwf, wf)))
		integrity(t, a, "the unmutated store")
		first := map[string]*relstore.Row{}
		for _, ts := range Schemas() {
			rows, err := a.Store().Select(relstore.Query{Table: ts.Name})
			if err != nil || len(rows) == 0 {
				t.Fatalf("fixture has no %s row (%v)", ts.Name, err)
			}
			first[ts.Name] = rows[len(rows)-1]
		}
		return a, first
	}
	const dangling = 1 << 40
	for _, ref := range references {
		a, first := fixture()
		copyRow(t, a.Store().Writer(0), first[ref.table], map[string]int64{ref.column: dangling})
		sn := a.Snapshot()
		err := CheckIntegrity(sn)
		sn.Close()
		want := fmt.Sprintf("%s = %d names no %s row", ref.column, int64(dangling), ref.to)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("dangling %s.%s: integrity check says %v, want it to name %q", ref.table, ref.column, err, want)
		}
	}
	for _, key := range identities {
		a, first := fixture()
		r := first[key.table]
		copyRow(t, a.Store().Writer(0), r, nil)
		sn := a.Snapshot()
		err := CheckIntegrity(sn)
		sn.Close()
		want := fmt.Sprintf("%s rows %d and %d share the key %v", key.table, r.ID(), r.ID()+1, key.columns)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("duplicate %s key: integrity check says %v, want it to name %q", key.table, err, want)
		}
	}
}

// TestConcurrentPartitionsShareIdentity: hosts and parent workflows are the
// rows more than one partition resolves, and with no unique key below them
// only hostMu and wfMu keep each one a single row. Eight goroutines apply
// disjoint workflows across four partitions, every one a child of one of
// two parents, its jobs on one of three hosts. They start together, and
// each workflow names its hosts right after its plan, so first sightings
// of a host or a parent collide.
func TestConcurrentPartitionsShareIdentity(t *testing.T) {
	a := NewInMemoryN(4)
	parents := []string{uuid.New().String(), uuid.New().String()}
	const goroutines, perG = 8, 6
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				wf := emitWorkflow(uuid.New().String())
				wf[0].Set(schema.AttrParentXwf, parents[(g+i)%2])
				evs, rest := wf[:1:1], []*bp.Event{}
				for _, ev := range wf[1:] {
					if ev.Type == schema.HostInfo {
						evs = append(evs, ev.Set(schema.AttrHostname, fmt.Sprint("node", (g+i)%3)))
					} else {
						rest = append(rest, ev)
					}
				}
				if _, err := a.ApplyBatch(append(evs, rest...)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	counts := tableCounts(t, a)
	if counts[THost] != 3 {
		t.Errorf("%d host rows, want one per (site, hostname, ip): 3", counts[THost])
	}
	if want := goroutines*perG + len(parents); counts[TWorkflow] != want {
		t.Errorf("%d workflow rows, want %d", counts[TWorkflow], want)
	}
	for _, p := range parents {
		rows, err := a.Store().Select(relstore.Query{Table: TWorkflow, Conds: []relstore.Cond{relstore.Eq("wf_uuid", p)}})
		if err != nil || len(rows) != 1 {
			t.Errorf("parent %s: %d rows (%v), want 1", p, len(rows), err)
		}
	}
	integrity(t, a, "after concurrent apply")
}
