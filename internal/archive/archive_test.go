package archive

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bp"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/uuid"
)

var t0 = time.Date(2012, 3, 13, 12, 35, 38, 0, time.UTC)

// col reads one column of a stored row by name, boxed as its column type's
// Go value, or nil for NULL — how these tests have always spelled a row.
func col(r *relstore.Row, name string) any {
	c, err := r.Layout().Col(name)
	if err != nil {
		panic(err)
	}
	if r.IsNull(c) {
		return nil
	}
	switch c.Type() {
	case relstore.Int:
		return r.Int(c)
	case relstore.Float:
		return r.Float(c)
	case relstore.Str:
		return r.Str(c)
	case relstore.Bool:
		return r.Bool(c)
	default:
		return r.Time(c)
	}
}

// emitWorkflow produces the canonical event stream for a two-job linear
// workflow (stage -> exec) with one invocation each, mirroring what a
// normalizer emits.
func emitWorkflow(wf string) []*bp.Event {
	at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }
	mk := func(typ string, sec int) *bp.Event {
		return bp.New(typ, at(sec)).Set(schema.AttrXwfID, wf).Set(schema.AttrLevel, bp.LevelInfo)
	}
	ji := func(typ string, sec int, job string) *bp.Event {
		return mk(typ, sec).Set(schema.AttrJobID, job).SetInt(schema.AttrJobInstID, 1)
	}
	var evs []*bp.Event
	evs = append(evs,
		mk(schema.WfPlan, 0).Set("submit.hostname", "desktop").Set(schema.AttrRootXwf, wf).
			Set("dax.label", "demo").Set("user", "alice"),
		mk(schema.StaticStart, 0),
		mk(schema.TaskInfo, 0).Set(schema.AttrTaskID, "t_exec").Set("type_desc", "compute").Set(schema.AttrTransform, "exec"),
		mk(schema.JobInfo, 0).Set(schema.AttrJobID, "stage_in").Set("type_desc", "stage-in").
			SetInt("clustered", 0).SetInt("max_retries", 3).Set(schema.AttrExecutable, "/bin/cp").SetInt("task_count", 0),
		mk(schema.JobInfo, 0).Set(schema.AttrJobID, "exec_j1").Set("type_desc", "compute").
			SetInt("clustered", 0).SetInt("max_retries", 3).Set(schema.AttrExecutable, "/bin/exec").SetInt("task_count", 1),
		mk(schema.JobEdge, 0).Set("parent.job.id", "stage_in").Set("child.job.id", "exec_j1"),
		mk(schema.MapTaskJob, 0).Set(schema.AttrTaskID, "t_exec").Set(schema.AttrJobID, "exec_j1"),
		mk(schema.StaticEnd, 0),
		mk(schema.XwfStart, 1).SetInt("restart_count", 0),

		ji(schema.SubmitStart, 1, "stage_in"),
		ji(schema.SubmitEnd, 2, "stage_in").SetInt(schema.AttrStatus, 0),
		ji(schema.MainStart, 3, "stage_in"),
		ji(schema.HostInfo, 3, "stage_in").Set(schema.AttrSite, "local").Set(schema.AttrHostname, "node1").Set("ip", "10.0.0.1"),
		ji(schema.InvStart, 3, "stage_in").SetInt(schema.AttrInvID, 1),
		ji(schema.InvEnd, 5, "stage_in").SetInt(schema.AttrInvID, 1).
			Set(schema.AttrStartTime, at(3).Format(bp.TimeFormat)).
			SetFloat(schema.AttrDur, 2).SetInt(schema.AttrExitcode, 0).Set(schema.AttrTransform, "stage-in"),
		ji(schema.MainEnd, 5, "stage_in").SetInt(schema.AttrStatus, 0).SetInt(schema.AttrExitcode, 0).Set(schema.AttrSite, "local"),

		ji(schema.SubmitStart, 5, "exec_j1"),
		ji(schema.SubmitEnd, 6, "exec_j1").SetInt(schema.AttrStatus, 0),
		ji(schema.MainStart, 7, "exec_j1"),
		ji(schema.HostInfo, 7, "exec_j1").Set(schema.AttrSite, "local").Set(schema.AttrHostname, "node1").Set("ip", "10.0.0.1"),
		ji(schema.InvStart, 7, "exec_j1").SetInt(schema.AttrInvID, 1),
		ji(schema.InvEnd, 81, "exec_j1").SetInt(schema.AttrInvID, 1).
			Set(schema.AttrStartTime, at(7).Format(bp.TimeFormat)).
			SetFloat(schema.AttrDur, 74).SetFloat(schema.AttrRemoteCPU, 73.5).
			SetInt(schema.AttrExitcode, 0).Set(schema.AttrTransform, "exec").Set(schema.AttrTaskID, "t_exec"),
		ji(schema.MainEnd, 81, "exec_j1").SetInt(schema.AttrStatus, 0).SetInt(schema.AttrExitcode, 0).
			Set(schema.AttrSite, "local").Set(schema.AttrStdoutText, "done"),

		mk(schema.XwfEnd, 82).SetInt("restart_count", 0).SetInt(schema.AttrStatus, 0),
	)
	return evs
}

func applyAll(t *testing.T, a *Archive, evs []*bp.Event) {
	t.Helper()
	for i, ev := range evs {
		if err := a.Apply(ev); err != nil {
			t.Fatalf("event %d (%s): %v", i, ev.Type, err)
		}
	}
}

func TestApplyFullWorkflow(t *testing.T) {
	a := NewInMemory()
	wf := uuid.New().String()
	evs := emitWorkflow(wf)
	applyAll(t, a, evs)
	if a.Applied() != uint64(len(evs)) {
		t.Errorf("Applied = %d, want %d", a.Applied(), len(evs))
	}
	st := a.Store()

	counts := map[string]int{
		TWorkflow: 1, TWorkflowState: 2, TTask: 1, TJob: 2,
		TJobEdge: 1, TJobInstance: 2, TInvocation: 2, THost: 1,
	}
	for table, want := range counts {
		if n, _ := st.Count(table); n != want {
			t.Errorf("%s count = %d, want %d", table, n, want)
		}
	}

	wfRow, err := st.SelectOne(relstore.Query{Table: TWorkflow, Conds: []relstore.Cond{relstore.Eq("wf_uuid", wf)}})
	if err != nil || wfRow == nil {
		t.Fatalf("workflow row: %v %v", wfRow, err)
	}
	if col(wfRow, "dax_label") != "demo" || col(wfRow, "user") != "alice" {
		t.Errorf("plan fields lost: %v", wfRow)
	}

	// task.job_id set by the mapping event.
	task, _ := st.SelectOne(relstore.Query{Table: TTask, Conds: []relstore.Cond{relstore.Eq("wf_id", wfRow.ID())}})
	if col(task, "job_id") == nil {
		t.Error("wf.map.task_job did not link task to job")
	}

	// job_instance for exec_j1: exitcode, site, host, stdout, local_duration.
	job, _ := st.SelectOne(relstore.Query{Table: TJob, Conds: []relstore.Cond{
		relstore.Eq("wf_id", wfRow.ID()), relstore.Eq("exec_job_id", "exec_j1")}})
	inst, _ := st.SelectOne(relstore.Query{Table: TJobInstance, Conds: []relstore.Cond{
		relstore.Eq("job_id", job.ID()), relstore.Eq("job_submit_seq", int64(1))}})
	if col(inst, "exitcode") != int64(0) || col(inst, "site") != "local" || col(inst, "stdout_text") != "done" {
		t.Errorf("job_instance fields: %v", inst)
	}
	if col(inst, "host_id") == nil {
		t.Error("host not linked")
	}
	if ld, ok := col(inst, "local_duration").(float64); !ok || ld != 74 {
		t.Errorf("local_duration = %v, want 74", col(inst, "local_duration"))
	}

	// jobstate sequence for exec_j1.
	states, _ := st.Select(relstore.Query{Table: TJobState,
		Conds: []relstore.Cond{relstore.Eq("job_instance_id", inst.ID())}, OrderBy: "jobstate_submit_seq"})
	var names []string
	for _, s := range states {
		names = append(names, col(s, "state").(string))
	}
	want := []string{JSSubmit, JSSubmitted, JSExecute, JSSuccess}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("jobstates = %v, want %v", names, want)
	}

	// invocation record for the exec job.
	inv, _ := st.SelectOne(relstore.Query{Table: TInvocation, Conds: []relstore.Cond{
		relstore.Eq("job_instance_id", inst.ID())}})
	if col(inv, "remote_duration") != 74.0 || col(inv, "remote_cpu_time") != 73.5 || col(inv, "abs_task_id") != "t_exec" {
		t.Errorf("invocation = %v", inv)
	}
	if startT := col(inv, "start_time").(time.Time); !startT.Equal(t0.Add(7 * time.Second)) {
		t.Errorf("invocation start_time = %v", startT)
	}
}

func TestApplyIdempotentStaticReplay(t *testing.T) {
	// Workflow restarts re-emit the static description; duplicates must be
	// tolerated.
	a := NewInMemory()
	wf := uuid.New().String()
	evs := emitWorkflow(wf)
	applyAll(t, a, evs)
	for _, ev := range evs[:8] { // replay the static prefix
		if err := a.Apply(ev); err != nil {
			t.Fatalf("replayed %s: %v", ev.Type, err)
		}
	}
	st := a.Store()
	if n, _ := st.Count(TTask); n != 1 {
		t.Errorf("task duplicated on replay: %d", n)
	}
	if n, _ := st.Count(TJob); n != 2 {
		t.Errorf("job duplicated on replay: %d", n)
	}
	if n, _ := st.Count(TJobEdge); n != 1 {
		t.Errorf("job_edge duplicated on replay: %d", n)
	}
}

func TestApplyOutOfOrderJobInstCreatesPlaceholders(t *testing.T) {
	// A main.start arriving before job.info (and before wf.plan) must
	// still be recorded; the workflow and job rows appear as placeholders.
	a := NewInMemory()
	wf := uuid.New().String()
	ev := bp.New(schema.MainStart, t0).Set(schema.AttrXwfID, wf).
		Set(schema.AttrJobID, "ghost_job").SetInt(schema.AttrJobInstID, 1)
	if err := a.Apply(ev); err != nil {
		t.Fatal(err)
	}
	st := a.Store()
	if n, _ := st.Count(TWorkflow); n != 1 {
		t.Errorf("placeholder workflow rows = %d", n)
	}
	if n, _ := st.Count(TJob); n != 1 {
		t.Errorf("placeholder job rows = %d", n)
	}
	if n, _ := st.Count(TJobState); n != 1 {
		t.Errorf("jobstate rows = %d", n)
	}
	// The later wf.plan upgrades the placeholder instead of duplicating.
	plan := bp.New(schema.WfPlan, t0).Set(schema.AttrXwfID, wf).
		Set("submit.hostname", "desktop").Set(schema.AttrRootXwf, wf)
	if err := a.Apply(plan); err != nil {
		t.Fatal(err)
	}
	if n, _ := st.Count(TWorkflow); n != 1 {
		t.Errorf("plan after placeholder duplicated workflow: %d rows", n)
	}
	row, _ := st.SelectOne(relstore.Query{Table: TWorkflow, Conds: []relstore.Cond{relstore.Eq("wf_uuid", wf)}})
	if col(row, "submit_hostname") != "desktop" {
		t.Error("plan did not upgrade placeholder metadata")
	}
}

func TestApplyFailedJob(t *testing.T) {
	a := NewInMemory()
	wf := uuid.New().String()
	ji := func(typ string, sec int) *bp.Event {
		return bp.New(typ, t0.Add(time.Duration(sec)*time.Second)).
			Set(schema.AttrXwfID, wf).Set(schema.AttrJobID, "bad").SetInt(schema.AttrJobInstID, 1)
	}
	evs := []*bp.Event{
		ji(schema.SubmitStart, 0),
		ji(schema.MainStart, 1),
		ji(schema.MainEnd, 4).SetInt(schema.AttrStatus, -1).SetInt(schema.AttrExitcode, 1).
			Set(schema.AttrStderrText, "java.lang.NullPointerException"),
	}
	applyAll(t, a, evs)
	st := a.Store()
	states, _ := st.Select(relstore.Query{Table: TJobState, OrderBy: "jobstate_submit_seq"})
	last := col(states[len(states)-1], "state")
	if last != JSFailure {
		t.Errorf("final state = %v, want JOB_FAILURE", last)
	}
	insts, _ := st.Select(relstore.Query{Table: TJobInstance})
	if col(insts[0], "exitcode") != int64(1) || col(insts[0], "stderr_text") != "java.lang.NullPointerException" {
		t.Errorf("failure details not recorded: %v", insts[0])
	}
}

func TestApplyRetriesCreateSeparateInstances(t *testing.T) {
	a := NewInMemory()
	wf := uuid.New().String()
	for seq := 1; seq <= 2; seq++ {
		for i, typ := range []string{schema.SubmitStart, schema.MainStart, schema.MainEnd} {
			ev := bp.New(typ, t0.Add(time.Duration(seq*10+i)*time.Second)).
				Set(schema.AttrXwfID, wf).Set(schema.AttrJobID, "flaky").SetInt(schema.AttrJobInstID, int64(seq))
			if typ == schema.MainEnd {
				code := int64(1)
				if seq == 2 {
					code = 0
				}
				ev.SetInt(schema.AttrStatus, 0).SetInt(schema.AttrExitcode, code)
			}
			if err := a.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, _ := a.Store().Count(TJobInstance); n != 2 {
		t.Fatalf("instances = %d, want 2 (one per retry)", n)
	}
	if n, _ := a.Store().Count(TJob); n != 1 {
		t.Fatalf("jobs = %d, want 1", n)
	}
}

func TestApplySubWorkflowLinkage(t *testing.T) {
	a := NewInMemory()
	parent := uuid.New().String()
	child := uuid.New().String()
	evs := []*bp.Event{
		bp.New(schema.WfPlan, t0).Set(schema.AttrXwfID, parent).
			Set("submit.hostname", "desktop").Set(schema.AttrRootXwf, parent),
		bp.New(schema.SubmitStart, t0).Set(schema.AttrXwfID, parent).
			Set(schema.AttrJobID, "subwf_j").SetInt(schema.AttrJobInstID, 1),
		bp.New(schema.MapSubwfJob, t0).Set(schema.AttrXwfID, parent).
			Set(schema.AttrSubwfID, child).Set(schema.AttrJobID, "subwf_j").SetInt(schema.AttrJobInstID, 1),
		bp.New(schema.WfPlan, t0.Add(time.Second)).Set(schema.AttrXwfID, child).
			Set("submit.hostname", "node3").Set(schema.AttrRootXwf, parent).Set(schema.AttrParentXwf, parent),
	}
	applyAll(t, a, evs)
	st := a.Store()
	childRow, _ := st.SelectOne(relstore.Query{Table: TWorkflow, Conds: []relstore.Cond{relstore.Eq("wf_uuid", child)}})
	parentRow, _ := st.SelectOne(relstore.Query{Table: TWorkflow, Conds: []relstore.Cond{relstore.Eq("wf_uuid", parent)}})
	if col(childRow, "parent_wf_id") != parentRow.ID() {
		t.Errorf("child parent_wf_id = %v, want %d", col(childRow, "parent_wf_id"), parentRow.ID())
	}
	if col(childRow, "root_wf_uuid") != parent {
		t.Errorf("child root = %v", col(childRow, "root_wf_uuid"))
	}
	inst, _ := st.SelectOne(relstore.Query{Table: TJobInstance})
	if col(inst, "subwf_uuid") != child {
		t.Errorf("subwf linkage = %v", col(inst, "subwf_uuid"))
	}
}

func TestApplyUnknownEventType(t *testing.T) {
	a := NewInMemory()
	err := a.Apply(bp.New("stampede.mystery.event", t0).Set(schema.AttrXwfID, uuid.New().String()))
	if !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("err = %v, want ErrUnknownEvent", err)
	}
}

func TestApplyMissingXwfID(t *testing.T) {
	a := NewInMemory()
	if err := a.Apply(bp.New(schema.XwfStart, t0).SetInt("restart_count", 0)); err == nil {
		t.Fatal("event without xwf.id accepted")
	}
}

func TestArchivePersistAndReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "archive")
	a, err := OpenDir(dir, relstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wf := uuid.New().String()
	applyAll(t, a, emitWorkflow(wf))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := ro.Store().Count(TInvocation); n != 2 {
		t.Fatalf("invocations in a read-only load = %d", n)
	}
	integrity(t, ro, "read-only load")
	re, err := OpenDir(dir, relstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, _ := re.Store().Count(TInvocation); n != 2 {
		t.Fatalf("invocations after reopen = %d", n)
	}
	// Caches warmed: a retry event for an existing job must reuse rows.
	ev := bp.New(schema.SubmitStart, t0.Add(100*time.Second)).
		Set(schema.AttrXwfID, wf).Set(schema.AttrJobID, "exec_j1").SetInt(schema.AttrJobInstID, 2)
	if err := re.Apply(ev); err != nil {
		t.Fatal(err)
	}
	if n, _ := re.Store().Count(TJob); n != 2 {
		t.Fatalf("job duplicated after reopen: %d", n)
	}
	if n, _ := re.Store().Count(TJobInstance); n != 3 {
		t.Fatalf("instances = %d, want 3", n)
	}
	integrity(t, re, "reopened store")
}

func TestApplyBatchMatchesSequential(t *testing.T) {
	wf := uuid.New().String()
	evs := emitWorkflow(wf)
	seq := NewInMemory()
	applyAll(t, seq, evs)
	bat := NewInMemory()
	if n, err := bat.ApplyBatch(evs); err != nil || n != len(evs) {
		t.Fatalf("ApplyBatch = %d, %v", n, err)
	}
	for _, table := range []string{TWorkflow, TWorkflowState, TTask, TJob, TJobInstance, TJobState, TInvocation, THost} {
		ns, _ := seq.Store().Count(table)
		nb, _ := bat.Store().Count(table)
		if ns != nb {
			t.Errorf("%s: sequential %d vs batch %d", table, ns, nb)
		}
	}
}

func TestEventsValidateAgainstSchema(t *testing.T) {
	// The emitter used across archive tests must produce schema-valid
	// events; otherwise the tests prove nothing about the real pipeline.
	v, err := schema.NewValidator()
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range emitWorkflow(uuid.New().String()) {
		if err := v.Validate(ev); err != nil {
			t.Errorf("event %d: %v", i, err)
		}
	}
}

func TestApplyMainErrorRecordsJobstate(t *testing.T) {
	// A failing attempt announces itself with job_inst.main.error before
	// the terminal main.end; the archive materialises it as a MAIN_ERROR
	// jobstate row on the same instance.
	a := NewInMemory()
	wf := uuid.New().String()
	ji := func(typ string, sec int) *bp.Event {
		return bp.New(typ, t0.Add(time.Duration(sec)*time.Second)).
			Set(schema.AttrXwfID, wf).Set(schema.AttrJobID, "flaky").SetInt(schema.AttrJobInstID, 1)
	}
	evs := []*bp.Event{
		ji(schema.SubmitStart, 0),
		ji(schema.MainStart, 1),
		ji(schema.MainError, 4).Set(schema.AttrLevel, bp.LevelError).
			SetInt(schema.AttrStatus, -1).SetInt(schema.AttrExitcode, 1).
			Set(schema.AttrStderrText, "boom"),
		ji(schema.MainEnd, 4).SetInt(schema.AttrStatus, -1).SetInt(schema.AttrExitcode, 1),
	}
	applyAll(t, a, evs)
	states, err := a.Store().Select(relstore.Query{Table: TJobState, OrderBy: "jobstate_submit_seq"})
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	for _, row := range states {
		seen = append(seen, col(row, "state").(string))
	}
	want := map[string]bool{JSMainError: false, JSFailure: false}
	for _, s := range seen {
		if _, ok := want[s]; ok {
			want[s] = true
		}
	}
	for s, ok := range want {
		if !ok {
			t.Errorf("jobstate %s missing; got %v", s, seen)
		}
	}
	// One instance only: main.error must not fork a new job_instance.
	insts, _ := a.Store().Select(relstore.Query{Table: TJobInstance})
	if len(insts) != 1 {
		t.Errorf("expected 1 job_instance, got %d", len(insts))
	}
}
