package stats

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/archive"
	"repro/internal/loader"
	"repro/internal/query"
	"repro/internal/synth"
)

// TestSummaryInvariantsProperty checks algebraic invariants of the
// statistics pipeline over randomly parameterized synthetic workflows:
// whatever the workload shape, the reports must be internally consistent.
func TestSummaryInvariantsProperty(t *testing.T) {
	f := func(seed int64, jobsRaw, hostsRaw uint8, failRaw uint8, subRaw uint8) bool {
		cfg := synth.Config{
			Seed:         seed,
			Jobs:         int(jobsRaw%40) + 5,
			Hosts:        int(hostsRaw%4) + 1,
			SlotsPerHost: 2,
			FailureRate:  float64(failRaw%50) / 100, // 0 .. 0.49
			MaxRetries:   2,
			SubWorkflows: int(subRaw % 4), // 0..3
		}
		tr := synth.Generate(cfg)
		q, root, ok := loadTraceQuiet(t, tr)
		if !ok {
			return false
		}
		s, err := Compute(q, root, true)
		if err != nil {
			t.Logf("compute: %v", err)
			return false
		}
		// 1. Count algebra.
		if s.Tasks.Succeeded+s.Tasks.Failed+s.Tasks.Incomplete != s.Tasks.Total {
			t.Logf("task counts inconsistent: %+v", s.Tasks)
			return false
		}
		if s.Jobs.Succeeded+s.Jobs.Failed+s.Jobs.Incomplete != s.Jobs.Total {
			t.Logf("job counts inconsistent: %+v", s.Jobs)
			return false
		}
		// 2. Trace ground truth.
		if s.Jobs.Failed != tr.FailedJobs || s.Jobs.Retries != tr.TotalRetries {
			t.Logf("vs trace: %+v, failed=%d retries=%d", s.Jobs, tr.FailedJobs, tr.TotalRetries)
			return false
		}
		// 3. Breakdown totals equal the cumulative wall time.
		rows, err := Breakdown(q, root, true)
		if err != nil {
			return false
		}
		var breakdownTotal float64
		for _, r := range rows {
			if r.Count != r.Success+r.Failed {
				t.Logf("breakdown row inconsistent: %+v", r)
				return false
			}
			if r.Min > r.Mean+1e-9 || r.Mean > r.Max+1e-9 {
				t.Logf("breakdown ordering violated: %+v", r)
				return false
			}
			breakdownTotal += r.Total
		}
		if math.Abs(breakdownTotal-s.CumulativeJobWallTime.Seconds()) > 1.0 {
			t.Logf("breakdown %.1f != cumulative %.1f", breakdownTotal, s.CumulativeJobWallTime.Seconds())
			return false
		}
		// 4. Host usage covers the same work.
		usage, err := HostsBreakdown(q, root, true)
		if err != nil {
			return false
		}
		var hostTotal float64
		for _, u := range usage {
			hostTotal += u.TotalRuntime
		}
		if math.Abs(hostTotal-breakdownTotal) > 1.0 {
			t.Logf("host runtime %.1f != breakdown %.1f", hostTotal, breakdownTotal)
			return false
		}
		// 5. Progress series end at the total invocation count.
		series, err := ProgressSeries(q, root)
		if err != nil {
			return false
		}
		finalInvs := 0
		for _, pts := range series {
			finalInvs += pts[len(pts)-1].Invocations
		}
		// With sub-workflows, series cover only the bundles (the root's
		// own submission jobs are excluded); without, the root itself.
		if cfg.SubWorkflows <= 1 && finalInvs == 0 && s.Jobs.Total > 0 {
			t.Logf("empty progress series")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// loadTraceQuiet loads a pre-generated trace into a fresh archive.
func loadTraceQuiet(t *testing.T, tr *synth.Trace) (*query.QI, int64, bool) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Logf("write: %v", err)
		return nil, 0, false
	}
	a := archive.NewInMemory()
	l, err := loader.New(a, loader.Options{})
	if err != nil {
		t.Logf("loader: %v", err)
		return nil, 0, false
	}
	if _, err := l.LoadReader(&buf); err != nil {
		t.Logf("load: %v", err)
		return nil, 0, false
	}
	q := query.New(a)
	wf, err := q.WorkflowByUUID(tr.RootUUID)
	if err != nil || wf == nil {
		t.Logf("root: %v", err)
		return nil, 0, false
	}
	return q, wf.ID, true
}
