package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/loader"
	"repro/internal/query"
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
		t.Fatalf("root workflow missing: %v", err)
	}
	return q, tr, wf.ID
}

func TestSummaryFlatWorkflow(t *testing.T) {
	q, tr, root := load(t, synth.Config{Seed: 1, Jobs: 30, TasksPerJob: 1})
	s, err := Compute(q, root, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tasks.Total != 30 || s.Tasks.Succeeded != 30 || s.Tasks.Failed != 0 {
		t.Errorf("tasks = %+v", s.Tasks)
	}
	if s.Jobs.Total != 30 || s.Jobs.Succeeded != 30 || s.Jobs.Retries != 0 {
		t.Errorf("jobs = %+v", s.Jobs)
	}
	if s.SubWorkflows.Total != 0 {
		t.Errorf("subwf = %+v", s.SubWorkflows)
	}
	if s.WallTime.Seconds() <= 0 {
		t.Error("wall time zero")
	}
	if s.CumulativeJobWallTime < s.WallTime {
		t.Errorf("cumulative %v < wall %v with parallel hosts", s.CumulativeJobWallTime, s.WallTime)
	}
	_ = tr
}

func TestSummaryHierarchy(t *testing.T) {
	q, _, root := load(t, synth.Config{Seed: 2, Jobs: 40, SubWorkflows: 5})
	s, err := Compute(q, root, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.SubWorkflows.Total != 5 || s.SubWorkflows.Succeeded != 5 {
		t.Errorf("subwf = %+v", s.SubWorkflows)
	}
	// 40 exec tasks live in sub-workflows; jobs also count the 5 root
	// submission jobs.
	if s.Tasks.Total != 40 {
		t.Errorf("tasks total = %d, want 40", s.Tasks.Total)
	}
	if s.Jobs.Total != 45 {
		t.Errorf("jobs total = %d, want 45", s.Jobs.Total)
	}
	// Non-recursive scope sees only the root's own jobs.
	flat, err := Compute(q, root, false)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Jobs.Total != 5 || flat.Tasks.Total != 0 {
		t.Errorf("non-recursive = %+v", flat)
	}
}

func TestSummaryFailuresAndRetries(t *testing.T) {
	q, tr, root := load(t, synth.Config{Seed: 11, Jobs: 60, FailureRate: 0.35, MaxRetries: 2})
	s, err := Compute(q, root, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.Jobs.Failed != tr.FailedJobs {
		t.Errorf("failed jobs = %d, trace %d", s.Jobs.Failed, tr.FailedJobs)
	}
	if s.Jobs.Retries != tr.TotalRetries {
		t.Errorf("retries = %d, trace %d", s.Jobs.Retries, tr.TotalRetries)
	}
	if s.Jobs.Succeeded+s.Jobs.Failed+s.Jobs.Incomplete != s.Jobs.Total {
		t.Errorf("job counts do not add up: %+v", s.Jobs)
	}
	if s.Tasks.Failed == 0 && tr.FailedJobs > 0 {
		t.Error("failed jobs but no failed tasks")
	}
}

func TestSummaryRender(t *testing.T) {
	q, _, root := load(t, synth.Config{Seed: 3, Jobs: 16, SubWorkflows: 2})
	s, _ := Compute(q, root, true)
	text := s.Render()
	for _, want := range []string{"Tasks", "Jobs", "Sub WF", "Workflow wall time", "Workflow cumulative job wall time"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q:\n%s", want, text)
		}
	}
}

func TestBreakdownGroupsByTransformation(t *testing.T) {
	types := []synth.JobType{
		{Name: "exec", MeanSeconds: 70, StddevPct: 0.05, Weight: 4},
		{Name: "zipper", MeanSeconds: 1, StddevPct: 0, Weight: 1},
	}
	q, _, root := load(t, synth.Config{Seed: 4, Jobs: 25, JobTypes: types})
	rows, err := Breakdown(q, root, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("breakdown rows = %d, want 2", len(rows))
	}
	byName := map[string]BreakdownRow{}
	for _, r := range rows {
		byName[r.Type] = r
	}
	ex := byName["exec"]
	zp := byName["zipper"]
	if ex.Count != 20 || zp.Count != 5 {
		t.Errorf("counts: exec=%d zipper=%d", ex.Count, zp.Count)
	}
	if ex.Mean < 50 || ex.Mean > 90 {
		t.Errorf("exec mean = %.1f, want ~70", ex.Mean)
	}
	if zp.Mean > 3 {
		t.Errorf("zipper mean = %.1f, want ~1", zp.Mean)
	}
	if ex.Min > ex.Mean || ex.Max < ex.Mean {
		t.Errorf("min/mean/max inconsistent: %+v", ex)
	}
	if got := ex.Total; math.Abs(got-ex.Mean*float64(ex.Count)) > 0.5 {
		t.Errorf("total %.1f != mean*count %.1f", got, ex.Mean*float64(ex.Count))
	}
	text := RenderBreakdown(rows)
	if !strings.Contains(text, "exec") || !strings.Contains(text, "zipper") {
		t.Errorf("render missing rows:\n%s", text)
	}
}

func TestJobsReport(t *testing.T) {
	q, _, root := load(t, synth.Config{Seed: 5, Jobs: 10, Hosts: 2, SlotsPerHost: 1, QueueDelayMean: 1})
	rows, err := JobsReport(q, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Try != 1 {
			t.Errorf("%s try = %d", r.Job, r.Try)
		}
		if r.Site != "cloud" {
			t.Errorf("%s site = %q", r.Job, r.Site)
		}
		if r.InvocationDuration <= 0 {
			t.Errorf("%s invocation duration = %v", r.Job, r.InvocationDuration)
		}
		if r.Runtime <= 0 {
			t.Errorf("%s runtime = %v", r.Job, r.Runtime)
		}
		if r.QueueTime < 0 {
			t.Errorf("%s negative queue time", r.Job)
		}
		if r.Host == "None" {
			t.Errorf("%s has no host", r.Job)
		}
		if r.Exit != 0 {
			t.Errorf("%s exit = %d", r.Job, r.Exit)
		}
	}
	text := RenderJobs(rows)
	if !strings.Contains(text, "Queue Time") || !strings.Contains(text, "Invocation Duration") {
		t.Errorf("render headers missing:\n%s", text)
	}
}

func TestJobsReportRetriesShowFinalTry(t *testing.T) {
	q, tr, root := load(t, synth.Config{Seed: 4, Jobs: 60, FailureRate: 0.4, MaxRetries: 3})
	if tr.TotalRetries == 0 {
		t.Skip("no retries in trace")
	}
	rows, err := JobsReport(q, root)
	if err != nil {
		t.Fatal(err)
	}
	sawRetried := false
	for _, r := range rows {
		if r.Try > 1 {
			sawRetried = true
		}
	}
	if !sawRetried {
		t.Error("no job row shows try > 1")
	}
}

func TestHostsBreakdown(t *testing.T) {
	q, _, root := load(t, synth.Config{Seed: 6, Jobs: 40, Hosts: 4})
	usage, err := HostsBreakdown(q, root, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(usage) != 4 {
		t.Fatalf("hosts = %d", len(usage))
	}
	totalJobs := 0
	for _, u := range usage {
		totalJobs += u.Jobs
		if u.TotalRuntime <= 0 || u.Invocations == 0 {
			t.Errorf("host %s: %+v", u.Host, u)
		}
	}
	if totalJobs != 40 {
		t.Errorf("jobs across hosts = %d, want 40", totalJobs)
	}
}

func TestProgressSeriesPerBundle(t *testing.T) {
	q, tr, root := load(t, synth.Config{Seed: 7, Jobs: 48, SubWorkflows: 6, Hosts: 4, SlotsPerHost: 2})
	series, err := ProgressSeries(q, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("series = %d, want 6", len(series))
	}
	for uuid, pts := range series {
		if len(pts) < 2 {
			t.Fatalf("bundle %s has %d points", uuid, len(pts))
		}
		// Monotone in both axes.
		for i := 1; i < len(pts); i++ {
			if pts[i].T < pts[i-1].T {
				t.Errorf("bundle %s time went backwards at %d", uuid, i)
			}
			if pts[i].CumRuntime < pts[i-1].CumRuntime {
				t.Errorf("bundle %s cumulative runtime decreased", uuid)
			}
		}
		final := pts[len(pts)-1]
		if final.Invocations != 8 { // 48 jobs / 6 bundles
			t.Errorf("bundle %s finished %d invocations, want 8", uuid, final.Invocations)
		}
	}
	text := RenderProgress(series)
	if !strings.Contains(text, "cum_runtime_s") {
		t.Errorf("render missing header")
	}
	_ = tr
}

func TestProgressSeriesFlatWorkflowFallsBackToRoot(t *testing.T) {
	q, tr, root := load(t, synth.Config{Seed: 8, Jobs: 12})
	series, err := ProgressSeries(q, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("series = %d, want 1", len(series))
	}
	pts := series[tr.RootUUID]
	if pts == nil {
		t.Fatal("root series missing")
	}
	if pts[len(pts)-1].Invocations != 12 {
		t.Errorf("final invocations = %d", pts[len(pts)-1].Invocations)
	}
}
