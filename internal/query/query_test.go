package query

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/loader"
	"repro/internal/relstore"
	"repro/internal/synth"
)

// loadTrace runs a synthetic trace through the loader and returns a query
// interface plus the trace for ground truth.
func loadTrace(t *testing.T, cfg synth.Config) (*QI, *synth.Trace) {
	t.Helper()
	tr := synth.Generate(cfg)
	a := archive.NewInMemory()
	l, err := loader.New(a, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadReader(&buf); err != nil {
		t.Fatal(err)
	}
	return New(a), tr
}

func TestWorkflowLookups(t *testing.T) {
	q, tr := loadTrace(t, synth.Config{Seed: 1, Jobs: 10, Label: "lookup"})
	wfs, err := q.Workflows()
	if err != nil || len(wfs) != 1 {
		t.Fatalf("Workflows = %d, %v", len(wfs), err)
	}
	wf, err := q.WorkflowByUUID(tr.RootUUID)
	if err != nil || wf == nil {
		t.Fatalf("WorkflowByUUID: %v %v", wf, err)
	}
	if wf.DaxLabel != "lookup" || wf.SubmitHost != "submit-host" {
		t.Errorf("wf = %+v", wf)
	}
	byID, err := q.Workflow(wf.ID)
	if err != nil || byID.UUID != tr.RootUUID {
		t.Errorf("Workflow(id) = %+v, %v", byID, err)
	}
	if _, err := q.Workflow(9999); err == nil {
		t.Error("Workflow(9999) succeeded")
	}
	if ghost, err := q.WorkflowByUUID("not-a-uuid"); err != nil || ghost != nil {
		t.Errorf("ghost lookup = %v, %v", ghost, err)
	}
}

func TestHierarchyWalk(t *testing.T) {
	q, tr := loadTrace(t, synth.Config{Seed: 2, Jobs: 24, SubWorkflows: 4})
	roots, err := q.RootWorkflows()
	if err != nil || len(roots) != 1 {
		t.Fatalf("roots = %d, %v", len(roots), err)
	}
	if roots[0].UUID != tr.RootUUID {
		t.Errorf("root uuid mismatch")
	}
	subs, err := q.SubWorkflows(roots[0].ID)
	if err != nil || len(subs) != 4 {
		t.Fatalf("subs = %d, %v", len(subs), err)
	}
	for _, s := range subs {
		if s.ParentID != roots[0].ID || s.RootUUID != tr.RootUUID {
			t.Errorf("sub-workflow linkage broken: %+v", s)
		}
	}
	desc, err := q.Descendants(roots[0].ID)
	if err != nil || len(desc) != 4 {
		t.Fatalf("descendants = %d, %v", len(desc), err)
	}
	if d, err := q.Descendants(subs[0].ID); err != nil || len(d) != 0 {
		t.Errorf("leaf descendants = %d, %v", len(d), err)
	}
}

func TestStatesAndWalltime(t *testing.T) {
	q, tr := loadTrace(t, synth.Config{Seed: 3, Jobs: 8, Hosts: 2, SlotsPerHost: 2})
	wf, _ := q.WorkflowByUUID(tr.RootUUID)
	states, err := q.WorkflowStates(wf.ID)
	if err != nil || len(states) != 2 {
		t.Fatalf("states = %v, %v", states, err)
	}
	if states[0].State != archive.WFStateStarted || states[1].State != archive.WFStateTerminated {
		t.Errorf("state sequence = %v", states)
	}
	if !states[1].HasStatus || states[1].Status != 0 {
		t.Errorf("termination status = %+v", states[1])
	}
	wall, err := q.Walltime(wf.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Walltime should be close to the trace's makespan (xwf.start at +0.5s,
	// xwf.end at makespan).
	want := time.Duration(tr.MakespanSeconds * float64(time.Second))
	if wall <= 0 || wall > want {
		t.Errorf("walltime = %v, makespan = %v", wall, want)
	}
}

func TestJobsTasksEdges(t *testing.T) {
	q, tr := loadTrace(t, synth.Config{Seed: 4, Jobs: 12, TasksPerJob: 2, Width: 4})
	wf, _ := q.WorkflowByUUID(tr.RootUUID)
	jobs, err := q.Jobs(wf.ID)
	if err != nil || len(jobs) != 12 {
		t.Fatalf("jobs = %d, %v", len(jobs), err)
	}
	for _, j := range jobs {
		if !j.Clustered || j.TaskCount != 2 {
			t.Errorf("job %s: clustered=%v task_count=%d", j.ExecJobID, j.Clustered, j.TaskCount)
		}
	}
	tasks, err := q.Tasks(wf.ID)
	if err != nil || len(tasks) != 24 {
		t.Fatalf("tasks = %d, %v", len(tasks), err)
	}
	mapped := 0
	for _, task := range tasks {
		if task.JobID != 0 {
			mapped++
		}
	}
	if mapped != 24 {
		t.Errorf("mapped tasks = %d, want 24", mapped)
	}
	// 12 jobs, width 4 -> 8 edges.
	if n := countRows(t, q, archive.TJobEdge, relstore.Eq("wf_id", wf.ID)); n != 8 {
		t.Fatalf("job edges = %d", n)
	}
	if n := countRows(t, q, archive.TTaskEdge, relstore.Eq("wf_id", wf.ID)); n != 8 {
		t.Fatalf("task edges = %d", n)
	}
}

// countRows counts a table's rows matching every condition.
func countRows(t *testing.T, q *QI, table string, conds ...relstore.Cond) int {
	t.Helper()
	rows, err := q.r.Select(relstore.Query{Table: table, Conds: conds})
	if err != nil {
		t.Fatal(err)
	}
	return len(rows)
}

func TestInstancesInvocationsHosts(t *testing.T) {
	q, tr := loadTrace(t, synth.Config{Seed: 5, Jobs: 10, Hosts: 3, FailureRate: 0.3, MaxRetries: 2})
	wf, _ := q.WorkflowByUUID(tr.RootUUID)
	jobs, _ := q.Jobs(wf.ID)
	totalInsts := 0
	for _, j := range jobs {
		insts, err := q.JobInstances(j.ID)
		if err != nil || len(insts) == 0 {
			t.Fatalf("instances for %s: %d, %v", j.ExecJobID, len(insts), err)
		}
		totalInsts += len(insts)
		for _, inst := range insts {
			if inst.Hostname == "" {
				t.Errorf("instance %d has no host", inst.ID)
			}
			states, err := q.JobStates(inst.ID)
			if err != nil || len(states) < 4 {
				t.Fatalf("states for inst %d: %d, %v", inst.ID, len(states), err)
			}
			invs, err := q.InvocationsForInstance(inst.ID)
			if err != nil || len(invs) != 1 {
				t.Fatalf("invocations for inst %d: %d, %v", inst.ID, len(invs), err)
			}
			if invs[0].RemoteDuration <= 0 {
				t.Errorf("invocation duration = %v", invs[0].RemoteDuration)
			}
			if !invs[0].HasCPUTime || invs[0].RemoteCPUTime <= 0 {
				t.Errorf("cpu time missing")
			}
		}
	}
	if totalInsts != 10+tr.TotalRetries {
		t.Errorf("instances = %d, want %d", totalInsts, 10+tr.TotalRetries)
	}
	allInvs, err := q.Invocations(wf.ID)
	if err != nil || len(allInvs) != totalInsts {
		t.Fatalf("workflow invocations = %d, want %d, %v", len(allInvs), totalInsts, err)
	}
	if n := countRows(t, q, archive.THost); n != 3 {
		t.Fatalf("hosts = %d", n)
	}
}

func TestInstanceDelays(t *testing.T) {
	q, tr := loadTrace(t, synth.Config{Seed: 6, Jobs: 20, Hosts: 1, SlotsPerHost: 1, QueueDelayMean: 2})
	wf, _ := q.WorkflowByUUID(tr.RootUUID)
	jobs, _ := q.Jobs(wf.ID)
	sawQueue := false
	for _, j := range jobs {
		insts, _ := q.JobInstances(j.ID)
		for _, inst := range insts {
			d, err := q.InstanceDelays(inst.ID)
			if err != nil {
				t.Fatal(err)
			}
			if d.Runtime <= 0 {
				t.Errorf("runtime = %v for %s", d.Runtime, j.ExecJobID)
			}
			if d.QueueTime > 0 {
				sawQueue = true
			}
			if d.QueueTime < 0 {
				t.Errorf("negative queue time %v", d.QueueTime)
			}
		}
	}
	if !sawQueue {
		t.Error("single-slot run shows no queueing anywhere")
	}
}

func TestFailedInstanceDetails(t *testing.T) {
	q, tr := loadTrace(t, synth.Config{Seed: 11, Jobs: 50, FailureRate: 0.5, MaxRetries: 0})
	if tr.FailedJobs == 0 {
		t.Skip("seed produced no failures")
	}
	wf, _ := q.WorkflowByUUID(tr.RootUUID)
	jobs, _ := q.Jobs(wf.ID)
	failures := 0
	for _, j := range jobs {
		insts, _ := q.JobInstances(j.ID)
		for _, inst := range insts {
			if inst.HasExitcode && inst.Exitcode != 0 {
				failures++
				if inst.StderrText == "" {
					t.Errorf("failed instance %d has no stderr", inst.ID)
				}
			}
		}
	}
	if failures != tr.FailedJobs {
		t.Errorf("failed instances = %d, trace says %d", failures, tr.FailedJobs)
	}
}
