package pegasus

import (
	"context"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/triana"
)

func TestRunRescueEventuallySucceeds(t *testing.T) {
	// 60% per-instance failure rate and no per-job retries: the first run
	// almost certainly fails jobs; rescue runs must finish the rest while
	// skipping already-successful jobs.
	ew, err := Plan(Sweep("rescue", 10, 5), PlanConfig{Site: "cluster", MaxRetries: 0})
	if err != nil {
		t.Fatal(err)
	}
	clkApp, report := runRescueWorkflow(t, ew, 0.6, 15, 20)
	if report.Status != 0 {
		t.Fatalf("workflow never recovered: %+v", report)
	}
	if report.Restarts == 0 {
		t.Skip("first run succeeded despite 60% failure rate")
	}

	q := loadInto(t, clkApp)
	wf, _ := q.WorkflowByUUID(report.WfUUID)
	if wf == nil {
		t.Fatal("workflow missing")
	}

	// One workflow row despite repeated plan/static emission.
	if n, _ := q.Workflows(); len(n) != 1 {
		t.Fatalf("workflows = %d, want 1 (restarts share the uuid)", len(n))
	}
	// Static description deduplicated: exactly 12 jobs, 12 tasks.
	jobs, _ := q.Jobs(wf.ID)
	if len(jobs) != 12 {
		t.Fatalf("jobs = %d, want 12", len(jobs))
	}
	tasks, _ := q.Tasks(wf.ID)
	if len(tasks) != 12 {
		t.Fatalf("tasks = %d, want 12", len(tasks))
	}
	// workflowstate carries one start/end pair per restart with the right
	// restart counts.
	states, _ := q.WorkflowStates(wf.ID)
	wantPairs := report.Restarts + 1
	var starts, ends int
	for _, s := range states {
		switch s.State {
		case archive.WFStateStarted:
			starts++
		case archive.WFStateTerminated:
			ends++
		}
	}
	if starts != wantPairs || ends != wantPairs {
		t.Errorf("state pairs = %d/%d, want %d", starts, ends, wantPairs)
	}
	// The final termination is a success.
	last := states[len(states)-1]
	if last.State != archive.WFStateTerminated || last.Status != 0 {
		t.Errorf("final state = %+v", last)
	}
	// Submit sequences increase across restarts: some job has an instance
	// with job_submit_seq > 1, and no job re-ran after succeeding (its
	// last instance has exit 0 and is unique in success).
	maxSeq := int64(0)
	for _, j := range jobs {
		insts, _ := q.JobInstances(j.ID)
		successes := 0
		for _, inst := range insts {
			if inst.SubmitSeq > maxSeq {
				maxSeq = inst.SubmitSeq
			}
			if inst.HasExitcode && inst.Exitcode == 0 {
				successes++
			}
		}
		if successes > 1 {
			t.Errorf("job %s succeeded %d times; rescue must not re-run finished jobs", j.ExecJobID, successes)
		}
	}
	if maxSeq < 2 {
		t.Errorf("max submit seq = %d; restarts did not continue the sequence", maxSeq)
	}
}

func TestRunRescueGivesUpAtCap(t *testing.T) {
	ew, err := Plan(Diamond(5), PlanConfig{Site: "cluster", MaxRetries: 0})
	if err != nil {
		t.Fatal(err)
	}
	_, report := runRescueWorkflow(t, ew, 1.0, 2, 20)
	if report.Status == 0 {
		t.Fatal("always-failing workflow reported success")
	}
	if report.Restarts != 2 {
		t.Errorf("restarts = %d, want cap 2", report.Restarts)
	}
}

// runRescueWorkflow mirrors runWorkflow but drives RunRescue.
func runRescueWorkflow(t *testing.T, ew *EW, failureRate float64, maxRestarts int, seed int64) (*triana.CollectAppender, *RunReport) {
	t.Helper()
	app, pool, eng := newTestEngine(t, failureRate, seed)
	defer pool.Close()
	report, err := eng.RunRescue(context.Background(), ew, maxRestarts)
	if err != nil {
		t.Fatal(err)
	}
	return app, report
}

// Sanity: the identity keys the dedup relies on still cover the task and
// job tables (guards against schema drift): two task rows, or two job rows,
// naming one id in one workflow fail the archive's integrity check.
func TestStaticDedupKeysExist(t *testing.T) {
	for table, idCol := range map[string]string{archive.TTask: "abs_task_id", archive.TJob: "exec_job_id"} {
		a := archive.NewInMemory()
		w, lay := a.Store().Writer(0), a.Store().Layout(table)
		wf, _ := lay.Col("wf_id")
		id, _ := lay.Col(idCol)
		for i := 0; i < 2; i++ {
			d := w.NewRow(lay)
			d.SetInt(wf, 1)
			d.SetStr(id, "x")
			if _, err := w.Insert(&d); err != nil {
				t.Fatal(err)
			}
		}
		sn := a.Snapshot()
		err := archive.CheckIntegrity(sn)
		sn.Close()
		if err == nil || !strings.Contains(err.Error(), table+" rows 1 and 2 share the key") {
			t.Errorf("table %s lost its identity key: integrity check says %v", table, err)
		}
	}
}
