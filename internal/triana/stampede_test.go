package triana

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/core"
	"repro/internal/loader"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/wfclock"
)

// runMonitored executes a graph with a StampedeLog attached and returns
// the log, the collected events, and the run report.
func runMonitored(t *testing.T, g *TaskGraph, mode Mode) (*StampedeLog, *CollectAppender, *RunReport) {
	t.Helper()
	app := &CollectAppender{}
	log := NewStampedeLog(app)
	s := NewScheduler(g, Options{Mode: mode, Listeners: []Listener{log}})
	report, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return log, app, report
}

func simpleGraph() *TaskGraph {
	g := NewTaskGraph("demo")
	a := g.MustAddTask("reader", &FuncUnit{UnitName: "read-unit", Desc: "file", Fn: func(*ProcessContext) ([]any, error) {
		return []any{"data"}, nil
	}})
	b := g.MustAddTask("proc", &FuncUnit{UnitName: "proc-unit", Desc: "processing", Fn: func(ctx *ProcessContext) ([]any, error) {
		return []any{ctx.Inputs[0]}, nil
	}})
	_, _ = g.Connect(a, b)
	return g
}

func TestStampedeEventsAreSchemaValid(t *testing.T) {
	g := simpleGraph()
	_, app, _ := runMonitored(t, g, SingleStep)
	v, err := schema.NewValidator()
	if err != nil {
		t.Fatal(err)
	}
	v.Strict = true
	evs := app.Events()
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	for i, ev := range evs {
		if err := v.Validate(ev); err != nil {
			t.Errorf("event %d: %v", i, err)
		}
	}
}

func TestStampedeEventSequence(t *testing.T) {
	g := simpleGraph()
	log, app, _ := runMonitored(t, g, SingleStep)
	var types []string
	for _, ev := range app.Events() {
		types = append(types, ev.Type)
	}
	// The planning block must precede xwf.start, which must precede any
	// job-instance event; xwf.end must be last.
	idx := func(typ string) int {
		for i, s := range types {
			if s == typ {
				return i
			}
		}
		return -1
	}
	if idx(schema.WfPlan) != 0 {
		t.Errorf("first event = %s", types[0])
	}
	if !(idx(schema.StaticStart) < idx(schema.TaskInfo) &&
		idx(schema.TaskInfo) < idx(schema.StaticEnd) &&
		idx(schema.StaticEnd) < idx(schema.XwfStart)) {
		t.Errorf("static block misordered: %v", types)
	}
	if idx(schema.XwfStart) > idx(schema.SubmitStart) {
		t.Errorf("submit before xwf.start: %v", types)
	}
	if types[len(types)-1] != schema.XwfEnd {
		t.Errorf("last event = %s", types[len(types)-1])
	}
	// 1:1 task-job mapping for both tasks.
	maps := 0
	for _, ev := range app.Events() {
		if ev.Type == schema.MapTaskJob {
			maps++
			if ev.Get(schema.AttrTaskID) != ev.Get(schema.AttrJobID) {
				t.Errorf("map not 1:1: %s", ev.Format())
			}
		}
	}
	if maps != 2 {
		t.Errorf("task-job mappings = %d", maps)
	}
	if log.WorkflowUUID() == "" {
		t.Error("no workflow uuid recorded")
	}
}

// loadEvents pushes collected events through the loader into a fresh
// archive.
func loadEvents(t *testing.T, app *CollectAppender) *query.QI {
	t.Helper()
	a := archive.NewInMemory()
	l, err := loader.New(a, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range app.Events() {
		parsed, err := bp.Parse(ev.Format())
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if err := a.Apply(parsed); err != nil {
			t.Fatalf("apply %s: %v", ev.Type, err)
		}
	}
	_ = l
	return query.New(a)
}

func TestTrianaRunLoadsIntoArchive(t *testing.T) {
	g := simpleGraph()
	log, app, _ := runMonitored(t, g, SingleStep)
	q := loadEvents(t, app)
	wf, err := q.WorkflowByUUID(log.WorkflowUUID())
	if err != nil || wf == nil {
		t.Fatalf("workflow: %v %v", wf, err)
	}
	summary, err := stats.Compute(q, wf.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Tasks.Total != 2 || summary.Tasks.Succeeded != 2 {
		t.Errorf("tasks = %+v", summary.Tasks)
	}
	if summary.Jobs.Total != 2 || summary.Jobs.Succeeded != 2 {
		t.Errorf("jobs = %+v", summary.Jobs)
	}
	jobs, _ := q.Jobs(wf.ID)
	for _, j := range jobs {
		insts, _ := q.JobInstances(j.ID)
		if len(insts) != 1 {
			t.Fatalf("job %s has %d instances", j.ExecJobID, len(insts))
		}
		invs, _ := q.InvocationsForInstance(insts[0].ID)
		if len(invs) != 1 {
			t.Fatalf("job %s has %d invocations", j.ExecJobID, len(invs))
		}
	}
}

func TestTrianaFailureMapping(t *testing.T) {
	g := NewTaskGraph("failing")
	bad := g.MustAddTask("bad", &FuncUnit{UnitName: "bad-unit", Fn: func(*ProcessContext) ([]any, error) {
		return nil, errors.New("NullPointerException at Unit.process")
	}})
	down := g.MustAddTask("down", &FuncUnit{UnitName: "down-unit", Fn: func(ctx *ProcessContext) ([]any, error) {
		return nil, nil
	}})
	_, _ = g.Connect(bad, down)
	log, app, report := runMonitored(t, g, SingleStep)
	if report.Err == nil {
		t.Fatal("failure not reported")
	}
	// inv.end and main.end must carry return code -1 (the paper's rule).
	sawInvEnd, sawMainEnd, sawXwfFail := false, false, false
	for _, ev := range app.Events() {
		switch ev.Type {
		case schema.InvEnd:
			if code, _ := ev.Int(schema.AttrExitcode); code == -1 {
				sawInvEnd = true
			}
		case schema.MainEnd:
			if code, _ := ev.Int(schema.AttrExitcode); code == -1 {
				sawMainEnd = true
				if ev.Get(schema.AttrStderrText) == "" {
					t.Error("failed main.end lacks stderr text")
				}
			}
		case schema.XwfEnd:
			if st, _ := ev.Int(schema.AttrStatus); st == -1 {
				sawXwfFail = true
			}
		}
	}
	if !sawInvEnd || !sawMainEnd || !sawXwfFail {
		t.Fatalf("failure events: inv=%v main=%v xwf=%v", sawInvEnd, sawMainEnd, sawXwfFail)
	}
	q := loadEvents(t, app)
	wf, _ := q.WorkflowByUUID(log.WorkflowUUID())
	summary, _ := stats.Compute(q, wf.ID, true)
	if summary.Jobs.Failed != 1 {
		t.Errorf("failed jobs = %d", summary.Jobs.Failed)
	}
	if summary.Jobs.Incomplete != 1 { // downstream never ran
		t.Errorf("incomplete jobs = %d", summary.Jobs.Incomplete)
	}
}

func TestContinuousModeMultipleInvocationsPerJob(t *testing.T) {
	g := NewTaskGraph("stream")
	src := g.MustAddTask("chunks", &SliceSource{UnitName: "chunk-src", Items: []any{1, 2, 3}, Streaming: true})
	sink := g.MustAddTask("consume", &FuncUnit{UnitName: "consume-unit", Fn: func(*ProcessContext) ([]any, error) {
		return nil, nil
	}})
	_, _ = g.Connect(src, sink)
	log, app, _ := runMonitored(t, g, Continuous)

	invStarts := map[string]int{}
	invEnds := map[string]int{}
	mainEnds := map[string]int{}
	for _, ev := range app.Events() {
		job := ev.Get(schema.AttrJobID)
		switch ev.Type {
		case schema.InvStart:
			invStarts[job]++
		case schema.InvEnd:
			invEnds[job]++
		case schema.MainEnd:
			mainEnds[job]++
		}
	}
	// The source runs 3 real invocations plus the stop-iteration probe
	// (start without end); the sink runs 3.
	if invEnds["chunks"] != 3 || invEnds["consume"] != 3 {
		t.Errorf("inv.ends = %v", invEnds)
	}
	if mainEnds["chunks"] != 1 || mainEnds["consume"] != 1 {
		t.Errorf("main.ends = %v (job instance must close exactly once)", mainEnds)
	}
	q := loadEvents(t, app)
	wf, _ := q.WorkflowByUUID(log.WorkflowUUID())
	jobs, _ := q.Jobs(wf.ID)
	for _, j := range jobs {
		insts, _ := q.JobInstances(j.ID)
		if len(insts) != 1 {
			t.Fatalf("%s: %d instances", j.ExecJobID, len(insts))
		}
		invs, _ := q.InvocationsForInstance(insts[0].ID)
		if len(invs) != 3 {
			t.Fatalf("%s: %d invocations, want 3", j.ExecJobID, len(invs))
		}
	}
}

func TestSubWorkflowHierarchyEvents(t *testing.T) {
	app := &CollectAppender{}
	parentLog := NewStampedeLog(app)
	parent := NewTaskGraph("parent")

	buildChild := func(inputs []any) (*TaskGraph, error) {
		child := NewTaskGraph("child")
		a := child.MustAddTask("c-work", &FuncUnit{UnitName: "c-work", Fn: func(*ProcessContext) ([]any, error) {
			return []any{"x"}, nil
		}})
		b := child.MustAddTask("c-out", &FuncUnit{UnitName: "c-out", Fn: func(ctx *ProcessContext) ([]any, error) {
			return nil, nil
		}})
		_, _ = child.Connect(a, b)
		return child, nil
	}
	parent.MustAddTask("spawn", &SubWorkflowUnit{
		UnitName:  "spawn-sub",
		Build:     buildChild,
		ParentLog: parentLog,
		Appender:  app,
		Opts:      Options{Mode: SingleStep},
	})
	s := NewScheduler(parent, Options{Mode: SingleStep, Listeners: []Listener{parentLog}})
	report, err := s.Run(context.Background())
	if err != nil || report.Err != nil {
		t.Fatalf("run: %v %v", err, report.Err)
	}

	// Find the child's plan event: it must carry the parent linkage.
	var childUUID string
	sawMap := false
	for _, ev := range app.Events() {
		if ev.Type == schema.WfPlan && ev.Get(schema.AttrParentXwf) != "" {
			if ev.Get(schema.AttrParentXwf) != parentLog.WorkflowUUID() {
				t.Errorf("child parent = %s, want %s", ev.Get(schema.AttrParentXwf), parentLog.WorkflowUUID())
			}
			childUUID = ev.Get(schema.AttrXwfID)
		}
		if ev.Type == schema.MapSubwfJob {
			sawMap = true
			if ev.Get(schema.AttrJobID) != "spawn" {
				t.Errorf("subwf mapped to job %q", ev.Get(schema.AttrJobID))
			}
		}
	}
	if childUUID == "" || !sawMap {
		t.Fatalf("hierarchy events missing: child=%q map=%v", childUUID, sawMap)
	}

	q := loadEvents(t, app)
	root, _ := q.WorkflowByUUID(parentLog.WorkflowUUID())
	subs, err := q.SubWorkflows(root.ID)
	if err != nil || len(subs) != 1 {
		t.Fatalf("subs = %d, %v", len(subs), err)
	}
	summary, _ := stats.Compute(q, root.ID, true)
	if summary.SubWorkflows.Total != 1 || summary.SubWorkflows.Succeeded != 1 {
		t.Errorf("subwf summary = %+v", summary.SubWorkflows)
	}
	if summary.Jobs.Total != 3 { // spawn + 2 child jobs
		t.Errorf("jobs total = %d", summary.Jobs.Total)
	}
}

func TestThreeLevelHierarchy(t *testing.T) {
	// Triana's model is recursive: a sub-workflow can itself spawn
	// sub-workflows. Build grandparent -> parent -> child and verify the
	// archive reconstructs the full ancestry.
	app := &CollectAppender{}
	rootLog := NewStampedeLog(app)

	leaf := func() (*TaskGraph, error) {
		g := NewTaskGraph("leaf")
		g.MustAddTask("leaf-work", &FuncUnit{UnitName: "leaf-work", Fn: func(*ProcessContext) ([]any, error) {
			return nil, nil
		}})
		return g, nil
	}
	root := NewTaskGraph("grandparent")
	midUnit := &SubWorkflowUnit{
		UnitName:  "spawn-mid",
		ParentLog: rootLog,
		Appender:  app,
		Opts:      Options{Mode: SingleStep},
		Build: func([]any) (*TaskGraph, error) {
			mid := NewTaskGraph("parent")
			// The nested unit's ParentLog is injected automatically by the
			// enclosing SubWorkflowUnit (ParentLogSetter).
			_, err := mid.AddTask("spawn-leaf", &SubWorkflowUnit{
				UnitName: "spawn-leaf",
				Build:    func([]any) (*TaskGraph, error) { return leaf() },
				Appender: app,
				Opts:     Options{Mode: SingleStep},
			})
			return mid, err
		},
	}
	root.MustAddTask("spawn", midUnit)
	s := NewScheduler(root, Options{Mode: SingleStep, Listeners: []Listener{rootLog}})
	report, err := s.Run(context.Background())
	if err != nil || report.Err != nil {
		t.Fatalf("run: %v %v", err, report.Err)
	}

	q := loadEvents(t, app)
	rootWf, _ := q.WorkflowByUUID(rootLog.WorkflowUUID())
	if rootWf == nil {
		t.Fatal("root missing")
	}
	level1, err := q.SubWorkflows(rootWf.ID)
	if err != nil || len(level1) != 1 {
		t.Fatalf("level1 = %d, %v", len(level1), err)
	}
	level2, err := q.SubWorkflows(level1[0].ID)
	if err != nil || len(level2) != 1 {
		t.Fatalf("level2 = %d, %v", len(level2), err)
	}
	if level2[0].RootUUID != rootLog.WorkflowUUID() {
		t.Errorf("grandchild root = %s, want %s", level2[0].RootUUID, rootLog.WorkflowUUID())
	}
	desc, err := q.Descendants(rootWf.ID)
	if err != nil || len(desc) != 2 {
		t.Fatalf("descendants = %d, %v", len(desc), err)
	}
	summary, err := stats.Compute(q, rootWf.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if summary.SubWorkflows.Total != 2 || summary.SubWorkflows.Succeeded != 2 {
		t.Errorf("subwf summary = %+v", summary.SubWorkflows)
	}
	// Jobs: 1 (root spawn) + 1 (mid spawn) + 1 (leaf work) = 3.
	if summary.Jobs.Total != 3 {
		t.Errorf("jobs = %+v", summary.Jobs)
	}
}

func TestScaledClockCompressesDurations(t *testing.T) {
	// A 10-virtual-second work unit on a 1000x clock: the logged
	// invocation duration must be ~10s while real time stays tiny.
	clk := wfclock.NewScaled(time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC), 1000)
	g := NewTaskGraph("scaled")
	g.MustAddTask("work", &WorkUnit{UnitName: "work", Duration: 10 * time.Second, Clock: clk})
	app := &CollectAppender{}
	log := NewStampedeLog(app)
	s := NewScheduler(g, Options{Mode: SingleStep, Clock: clk, Listeners: []Listener{log}})
	realStart := time.Now()
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if real := time.Since(realStart); real > 2*time.Second {
		t.Fatalf("scaled run took %v real", real)
	}
	for _, ev := range app.Events() {
		if ev.Type == schema.InvEnd {
			d, _ := ev.Float(schema.AttrDur)
			// Scheduling overhead is amplified 1000x by the clock; allow a
			// generous upper bound, the property under test being that the
			// modeled 10s survived compression at all.
			if d < 8 || d > 30 {
				t.Fatalf("virtual duration = %v, want ~10", d)
			}
			return
		}
	}
	t.Fatal("no inv.end event")
}

func TestBusAppenderRealtimePipeline(t *testing.T) {
	// Engine -> bus -> loader, all live in the pipeline core.Start
	// assembles; the loader consumes while the workflow runs.
	st, err := core.Start(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := simpleGraph()
	log := NewStampedeLog(st.Appender())
	s := NewScheduler(g, Options{Mode: SingleStep, Listeners: []Listener{log}})
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := st.WaitLoaded(ctx, uint64(log.Appended())); err != nil {
		t.Fatalf("loader never caught up with the workflow: %v", err)
	}
	sum, err := st.Statistics(log.WorkflowUUID(), false)
	if err != nil {
		t.Fatalf("workflow missing from archive: %v", err)
	}
	if sum.Jobs.Total != 2 || sum.Jobs.Succeeded != 2 {
		t.Fatalf("loader saw jobs %+v, want both succeeded", sum.Jobs)
	}
	loaded, err := st.Stop()
	if err != nil || loaded.Loaded != uint64(log.Appended()) || loaded.Invalid > 0 {
		t.Fatalf("loader stats = %+v, %v; appended %d", loaded, err, log.Appended())
	}
}
