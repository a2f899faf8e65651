package analyzer

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/loader"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/synth"
)

func load(t *testing.T, cfg synth.Config) (*query.QI, *synth.Trace, int64) {
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
	q := query.New(a)
	wf, err := q.WorkflowByUUID(tr.RootUUID)
	if err != nil || wf == nil {
		t.Fatalf("root missing: %v", err)
	}
	return q, tr, wf.ID
}

func TestAnalyzeHealthyWorkflow(t *testing.T) {
	q, _, root := load(t, synth.Config{Seed: 1, Jobs: 12})
	r, err := Analyze(q, root, true)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Healthy() {
		t.Fatalf("healthy workflow reported unhealthy: %+v", r)
	}
	if r.Total != 12 || r.Succeeded != 12 {
		t.Errorf("counts: %+v", r)
	}
	if len(r.FailedJobs) != 0 {
		t.Errorf("failed jobs on clean run: %v", r.FailedJobs)
	}
}

func TestAnalyzeFailuresDetail(t *testing.T) {
	q, tr, root := load(t, synth.Config{Seed: 11, Jobs: 40, FailureRate: 0.4, MaxRetries: 1})
	if tr.FailedJobs == 0 {
		t.Skip("no failures with this seed")
	}
	r, err := Analyze(q, root, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != tr.FailedJobs {
		t.Errorf("failed = %d, trace %d", r.Failed, tr.FailedJobs)
	}
	if len(r.FailedJobs) != r.Failed {
		t.Errorf("detail blocks = %d, failed = %d", len(r.FailedJobs), r.Failed)
	}
	for _, fj := range r.FailedJobs {
		if fj.Exitcode == 0 {
			t.Errorf("%s: exitcode 0 in failure block", fj.ExecJobID)
		}
		if fj.LastState != archive.JSFailure {
			t.Errorf("%s: last state %q", fj.ExecJobID, fj.LastState)
		}
		if fj.StderrText == "" {
			t.Errorf("%s: captured stderr missing", fj.ExecJobID)
		}
		if fj.LastStateTime.IsZero() {
			t.Errorf("%s: no state timestamp", fj.ExecJobID)
		}
	}
	text := r.Render()
	for _, want := range []string{"# jobs failed", "captured stderr", "exitcode"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestAnalyzeDrillDownOnlySurfacesFailingBranches(t *testing.T) {
	// A hierarchy with failures somewhere in the sub-workflows: the root
	// report should include only failing branches as sub-reports.
	q, tr, root := load(t, synth.Config{Seed: 13, Jobs: 60, SubWorkflows: 6, FailureRate: 0.25, MaxRetries: 0})
	r, err := Analyze(q, root, true)
	if err != nil {
		t.Fatal(err)
	}
	if tr.FailedJobs == 0 {
		t.Skip("no failures with this seed")
	}
	if len(r.SubReports) == 0 {
		t.Fatal("failures exist but no sub-report surfaced")
	}
	totalSubFailures := 0
	for _, sr := range r.SubReports {
		if sr.Failed == 0 && sr.Incomplete == 0 {
			t.Errorf("healthy sub-workflow %s surfaced", sr.Workflow.UUID)
		}
		totalSubFailures += sr.Failed
	}
	if totalSubFailures != tr.FailedJobs {
		t.Errorf("sub-report failures = %d, trace = %d", totalSubFailures, tr.FailedJobs)
	}
	// The root's own submission jobs all succeeded.
	if r.Failed != 0 {
		t.Errorf("root-level failed = %d", r.Failed)
	}
}

func TestAnalyzeCleanHierarchyHasNoSubReports(t *testing.T) {
	q, _, root := load(t, synth.Config{Seed: 2, Jobs: 24, SubWorkflows: 3})
	r, err := Analyze(q, root, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SubReports) != 0 {
		t.Errorf("clean hierarchy surfaced %d sub-reports", len(r.SubReports))
	}
	if !r.Healthy() {
		t.Error("clean hierarchy unhealthy")
	}
}

func TestAnalyzeHeldJobs(t *testing.T) {
	// A job paused mid-run (held.start without a release): the analyzer
	// must count it as incomplete and held.
	a := archive.NewInMemory()
	wf := "aaaaaaaa-bbbb-4ccc-8ddd-eeeeeeeeeeee"
	t0 := time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC)
	ji := func(typ string, sec int) *bp.Event {
		return bp.New(typ, t0.Add(time.Duration(sec)*time.Second)).
			Set(schema.AttrXwfID, wf).Set(schema.AttrJobID, "stuck").SetInt(schema.AttrJobInstID, 1)
	}
	for _, ev := range []*bp.Event{
		bp.New(schema.WfPlan, t0).Set(schema.AttrXwfID, wf).
			Set("submit.hostname", "desktop").Set(schema.AttrRootXwf, wf),
		ji(schema.SubmitStart, 1),
		ji(schema.HeldStart, 2),
	} {
		if err := a.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	q := query.New(a)
	wfRow, _ := q.WorkflowByUUID(wf)
	r, err := Analyze(q, wfRow.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Incomplete != 1 || r.Held != 1 {
		t.Fatalf("report = %+v, want 1 incomplete, 1 held", r)
	}
	if r.Healthy() {
		t.Error("held workflow reported healthy")
	}
	text := r.Render()
	if !strings.Contains(text, "held") {
		t.Errorf("render missing held count:\n%s", text)
	}
}

func TestAnalyzeUnknownWorkflow(t *testing.T) {
	q, _, _ := load(t, synth.Config{Seed: 1, Jobs: 2})
	if _, err := Analyze(q, 99999, false); err == nil {
		t.Fatal("analyze of missing workflow succeeded")
	}
}
