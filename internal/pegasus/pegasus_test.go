package pegasus

import (
	"context"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/condor"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/triana"
	"repro/internal/wfclock"
)

var epoch = time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC)

func TestDAXValidate(t *testing.T) {
	if err := Diamond(10).Validate(); err != nil {
		t.Fatalf("diamond invalid: %v", err)
	}
	bad := []*DAX{
		{Label: ""},
		{Label: "x"},
		{Label: "x", Tasks: []AbsTask{{ID: "", Transformation: "t"}}},
		{Label: "x", Tasks: []AbsTask{{ID: "a", Transformation: "t"}, {ID: "a", Transformation: "t"}}},
		{Label: "x", Tasks: []AbsTask{{ID: "a"}}},
		{Label: "x", Tasks: []AbsTask{{ID: "a", Transformation: "t"}}, Edges: [][2]string{{"a", "ghost"}}},
		{Label: "x", Tasks: []AbsTask{{ID: "a", Transformation: "t"}}, Edges: [][2]string{{"a", "a"}}},
		{Label: "x", Tasks: []AbsTask{
			{ID: "a", Transformation: "t"}, {ID: "b", Transformation: "t"},
		}, Edges: [][2]string{{"a", "b"}, {"b", "a"}}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDAXLevels(t *testing.T) {
	lv := Diamond(10).Levels()
	want := map[string]int{"preprocess": 0, "findrange_a": 1, "findrange_b": 1, "analyze": 2}
	for k, v := range want {
		if lv[k] != v {
			t.Errorf("level[%s] = %d, want %d", k, lv[k], v)
		}
	}
}

func TestPlanUnclustered(t *testing.T) {
	ew, err := Plan(Diamond(10), PlanConfig{Site: "cluster", StageIn: true, StageOut: true, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ew.Jobs) != 6 { // 4 compute + 2 staging
		t.Fatalf("jobs = %d", len(ew.Jobs))
	}
	si := ew.Job("stage_in_0")
	if si == nil || si.TypeDesc != "stage-in" || len(si.TaskIDs) != 0 {
		t.Fatalf("stage_in = %+v", si)
	}
	// stage_in must precede preprocess; analyze must precede stage_out.
	hasEdge := func(p, c string) bool {
		for _, e := range ew.Edges {
			if e[0] == p && e[1] == c {
				return true
			}
		}
		return false
	}
	if !hasEdge("stage_in_0", "preprocess") || !hasEdge("analyze", "stage_out_0") {
		t.Fatalf("staging edges missing: %v", ew.Edges)
	}
	if hasEdge("stage_in_0", "analyze") {
		t.Fatal("stage_in wired to non-root job")
	}
}

func TestPlanClustering(t *testing.T) {
	dax := Sweep("sweep", 10, 5)
	ew, err := Plan(dax, PlanConfig{Site: "cluster", ClusterSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 10 workers cluster into ceil(10/4)=3 jobs; prepare and collect stay
	// single (cluster of 1 at their levels).
	var clustered, taskTotal int
	for _, j := range ew.Jobs {
		taskTotal += len(j.TaskIDs)
		if j.Clustered {
			clustered++
			if j.RuntimeSeconds < 5 {
				t.Errorf("clustered runtime = %v", j.RuntimeSeconds)
			}
		}
	}
	if clustered != 3 {
		t.Fatalf("clustered jobs = %d, want 3", clustered)
	}
	if taskTotal != 12 {
		t.Fatalf("tasks mapped = %d, want 12", taskTotal)
	}
	// The clustered job of 4 has runtime 4*5=20.
	for _, j := range ew.Jobs {
		if j.Clustered && len(j.TaskIDs) == 4 && j.RuntimeSeconds != 20 {
			t.Errorf("cluster of 4 runtime = %v, want 20", j.RuntimeSeconds)
		}
	}
	// No duplicate or intra-cluster edges.
	seen := map[[2]string]bool{}
	for _, e := range ew.Edges {
		if e[0] == e[1] {
			t.Fatalf("self edge %v", e)
		}
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := Plan(Diamond(1), PlanConfig{}); err == nil {
		t.Error("plan without site accepted")
	}
	if _, err := Plan(&DAX{Label: "bad"}, PlanConfig{Site: "s"}); err == nil {
		t.Error("invalid dax accepted")
	}
}

// newTestEngine builds a pool + engine pair over a scaled clock with a
// collecting appender. The caller closes the pool.
func newTestEngine(t *testing.T, failureRate float64, seed int64) (*triana.CollectAppender, *condor.Pool, *Engine) {
	t.Helper()
	clk := wfclock.NewScaled(epoch, 2000)
	app := &triana.CollectAppender{}
	pool, err := condor.NewPool(clk, 2*time.Second, []condor.Site{{
		Name: "cluster",
		Hosts: []condor.HostSpec{
			{Hostname: "node1", IP: "10.0.0.1", Slots: 2},
			{Hostname: "node2", IP: "10.0.0.2", Slots: 2},
		},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ExecConfig{
		Pool: pool, Clock: clk, Appender: app,
		SubmitHost: "submit.example.org", FailureRate: failureRate, Seed: seed,
	})
	if err != nil {
		pool.Close()
		t.Fatal(err)
	}
	return app, pool, eng
}

// runWorkflow executes an EW on a fresh pool and returns collected events
// plus the report.
func runWorkflow(t *testing.T, ew *EW, failureRate float64, seed int64) (*triana.CollectAppender, *RunReport) {
	t.Helper()
	app, pool, eng := newTestEngine(t, failureRate, seed)
	defer pool.Close()
	report, err := eng.Run(context.Background(), ew)
	if err != nil {
		t.Fatal(err)
	}
	return app, report
}

func loadInto(t *testing.T, app *triana.CollectAppender) *query.QI {
	t.Helper()
	a := archive.NewInMemory()
	for _, ev := range app.Events() {
		parsed, err := bp.Parse(ev.Format())
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Apply(parsed); err != nil {
			t.Fatalf("apply %s: %v", ev.Type, err)
		}
	}
	return query.New(a)
}

func TestDiamondRunEndToEnd(t *testing.T) {
	ew, err := Plan(Diamond(20), PlanConfig{Site: "cluster", StageIn: true, StageOut: true, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	app, report := runWorkflow(t, ew, 0, 1)
	if report.Failed != 0 || report.Succeeded != 6 || report.Status != 0 {
		t.Fatalf("report = %+v", report)
	}
	// Validate all events against the schema.
	v, err := schema.NewValidator()
	if err != nil {
		t.Fatal(err)
	}
	v.Strict = true
	for i, ev := range app.Events() {
		if err := v.Validate(ev); err != nil {
			t.Errorf("event %d: %v", i, err)
		}
	}
	q := loadInto(t, app)
	wf, _ := q.WorkflowByUUID(report.WfUUID)
	if wf == nil {
		t.Fatal("workflow missing")
	}
	summary, _ := stats.Compute(q, wf.ID, true)
	if summary.Tasks.Total != 4 || summary.Tasks.Succeeded != 4 {
		t.Errorf("tasks = %+v", summary.Tasks)
	}
	if summary.Jobs.Total != 6 || summary.Jobs.Succeeded != 6 {
		t.Errorf("jobs = %+v", summary.Jobs)
	}
	// Dependencies respected: analyze starts after both findranges end.
	invs, _ := q.Invocations(wf.ID)
	var analyzeStart time.Time
	var findEnd time.Time
	for _, inv := range invs {
		switch inv.AbsTaskID {
		case "analyze":
			analyzeStart = inv.StartTime
		case "findrange_a", "findrange_b":
			end := inv.StartTime.Add(wfclock.DurationSeconds(inv.RemoteDuration))
			if end.After(findEnd) {
				findEnd = end
			}
		}
	}
	if analyzeStart.Before(findEnd.Add(-time.Second)) {
		t.Errorf("analyze started %v before findrange finished %v", analyzeStart, findEnd)
	}
	// Queue time visible from the negotiation delay.
	jobs, _ := q.Jobs(wf.ID)
	for _, j := range jobs {
		insts, _ := q.JobInstances(j.ID)
		d, _ := q.InstanceDelays(insts[0].ID)
		if d.QueueTime < time.Second {
			t.Errorf("job %s queue time %v, want >= negotiation delay", j.ExecJobID, d.QueueTime)
		}
	}
}

func TestClusteredRunManyToManyMapping(t *testing.T) {
	dax := Sweep("sweep", 8, 5)
	ew, err := Plan(dax, PlanConfig{Site: "cluster", ClusterSize: 4, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	app, report := runWorkflow(t, ew, 0, 2)
	if report.Failed != 0 {
		t.Fatalf("report = %+v", report)
	}
	q := loadInto(t, app)
	wf, _ := q.WorkflowByUUID(report.WfUUID)
	summary, _ := stats.Compute(q, wf.ID, true)
	// 10 abstract tasks (prepare + 8 work + collect) in 4 jobs.
	if summary.Tasks.Total != 10 || summary.Tasks.Succeeded != 10 {
		t.Errorf("tasks = %+v", summary.Tasks)
	}
	if summary.Jobs.Total != 4 {
		t.Errorf("jobs = %+v", summary.Jobs)
	}
	// Each clustered instance carries one invocation per member task.
	jobs, _ := q.Jobs(wf.ID)
	for _, j := range jobs {
		if !j.Clustered {
			continue
		}
		insts, _ := q.JobInstances(j.ID)
		invs, _ := q.InvocationsForInstance(insts[0].ID)
		if len(invs) != int(j.TaskCount) {
			t.Errorf("job %s: %d invocations for %d tasks", j.ExecJobID, len(invs), j.TaskCount)
		}
	}
	// Tasks link back to their clustered job.
	tasks, _ := q.Tasks(wf.ID)
	for _, task := range tasks {
		if task.JobID == 0 {
			t.Errorf("task %s unmapped", task.AbsTaskID)
		}
	}
}

func TestRetriesProduceMultipleInstances(t *testing.T) {
	ew, err := Plan(Sweep("retry", 12, 3), PlanConfig{Site: "cluster", MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	app, report := runWorkflow(t, ew, 0.35, 7)
	if report.Retries == 0 {
		t.Skip("no retries injected with this seed")
	}
	q := loadInto(t, app)
	wf, _ := q.WorkflowByUUID(report.WfUUID)
	summary, _ := stats.Compute(q, wf.ID, true)
	if summary.Jobs.Retries != report.Retries {
		t.Errorf("archive retries = %d, engine %d", summary.Jobs.Retries, report.Retries)
	}
	if summary.Jobs.Succeeded != report.Succeeded || summary.Jobs.Failed != report.Failed {
		t.Errorf("summary %+v vs report %+v", summary.Jobs, report)
	}
}

func TestFailurePropagationSkipsDescendants(t *testing.T) {
	// Force guaranteed failure: rate 1.0 and no retries. Everything
	// downstream of the first failure must be Incomplete in the archive.
	ew, err := Plan(Diamond(5), PlanConfig{Site: "cluster", MaxRetries: 0})
	if err != nil {
		t.Fatal(err)
	}
	app, report := runWorkflow(t, ew, 1.0, 3)
	if report.Status != -1 || report.Failed == 0 {
		t.Fatalf("report = %+v", report)
	}
	q := loadInto(t, app)
	wf, _ := q.WorkflowByUUID(report.WfUUID)
	summary, _ := stats.Compute(q, wf.ID, true)
	if summary.Jobs.Failed != report.Failed {
		t.Errorf("failed: %d vs %d", summary.Jobs.Failed, report.Failed)
	}
	if summary.Jobs.Incomplete == 0 {
		t.Error("no incomplete jobs despite failure propagation")
	}
	states, _ := q.WorkflowStates(wf.ID)
	last := states[len(states)-1]
	if last.State != archive.WFStateTerminated || last.Status != -1 {
		t.Errorf("final wf state = %+v", last)
	}
}
