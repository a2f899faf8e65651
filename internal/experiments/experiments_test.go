package experiments

import (
	"strings"
	"testing"
)

func TestRunDARTTruncated(t *testing.T) {
	d, err := RunDART(DARTOptions{Scale: 20000, Executions: 24, TasksPerBundle: 8, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 24 exec + 3 prep + 3 zipper + 3 submit + 1 monitor.
	if d.Summary.Tasks.Total != 34 {
		t.Errorf("tasks = %d", d.Summary.Tasks.Total)
	}
	if len(d.Bundles) != 3 {
		t.Errorf("bundles = %d", len(d.Bundles))
	}
	if d.Summary.Jobs.Failed != 0 {
		t.Errorf("failures: %+v", d.Summary.Jobs)
	}
}

func TestRunDARTFullPaperShape(t *testing.T) {
	// Scale 2000: fast enough for tests while keeping the per-event real
	// overhead (tens of microseconds, multiplied by the clock scale) well
	// below the modeled durations, even under the race detector's ~10x
	// slowdown.
	d, err := RunDART(DARTOptions{Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	s := d.Summary
	// Table I exact counts.
	if s.Tasks.Total != 367 || s.Tasks.Succeeded != 367 {
		t.Errorf("tasks = %+v, want 367", s.Tasks)
	}
	if s.Jobs.Total != 367 || s.Jobs.Succeeded != 367 {
		t.Errorf("jobs = %+v, want 367", s.Jobs)
	}
	if s.SubWorkflows.Total != 20 || s.SubWorkflows.Succeeded != 20 {
		t.Errorf("subwf = %+v, want 20", s.SubWorkflows)
	}
	if s.Jobs.Retries != 0 || s.Tasks.Failed != 0 {
		t.Errorf("retries/failures: %+v %+v", s.Jobs, s.Tasks)
	}
	// Wall time within 2x of 661s in normal runs; under instrumentation
	// (race detector, loaded CI) per-event overhead is amplified by the
	// clock scale, so the upper bound is generous. Cumulative within ~2x
	// of 40224s; the headline ordering (cumulative >> wall) must hold
	// regardless.
	wall := s.WallTime.Seconds()
	cum := s.CumulativeJobWallTime.Seconds()
	if wall < 330 || wall > 3300 {
		t.Errorf("wall = %.0fs, paper 661s", wall)
	}
	if cum < 20112 || cum > 90000 {
		t.Errorf("cumulative = %.0fs, paper 40224s", cum)
	}
	if cum < 10*wall {
		t.Errorf("parallel overlap collapsed: cum %.0f vs wall %.0f", cum, wall)
	}

	// All four report artifacts render with their key content.
	t1 := Table1(d)
	for _, want := range []string{"Tasks", "367", "Sub WF", "wall time"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
	t2, err := Table2(d)
	if err != nil || !strings.Contains(t2, "dart-exec") {
		t.Errorf("Table2: %v\n%s", err, t2)
	}
	t34, err := Table34(d)
	if err != nil || !strings.Contains(t34, "Queue Time") {
		t.Errorf("Table34: %v", err)
	}
	f7, err := Fig7(d)
	if err != nil || !strings.Contains(f7, "cum_runtime_s") {
		t.Errorf("Fig7: %v", err)
	}
	// Exec durations within the paper's band (36-75s) with tolerance for
	// clock-scale overhead.
	if !strings.Contains(t2, "dart-exec") {
		t.Error("no exec row")
	}
}

func TestLoaderScaleMonotoneEvents(t *testing.T) {
	rows, err := LoaderScale([]int{100, 500, 2000}, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Events <= rows[i-1].Events {
			t.Errorf("events not growing: %+v", rows)
		}
	}
	for _, r := range rows {
		if r.Rate <= 0 {
			t.Errorf("rate = %v", r.Rate)
		}
	}
	out := RenderLoaderRows("title", rows)
	if !strings.Contains(out, "events/sec") {
		t.Error("render missing header")
	}
}

func TestLoaderBatchSweepShowsBatchingWin(t *testing.T) {
	rows, err := LoaderBatchSweep(300, []int{1, 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// With durable commits, batch 512 must beat batch 1 clearly.
	if rows[1].Rate < 2*rows[0].Rate {
		t.Errorf("batching win too small: batch1 %.0f vs batch512 %.0f ev/s",
			rows[0].Rate, rows[1].Rate)
	}
}

func TestCrossEngineAgreement(t *testing.T) {
	r, err := RunCrossEngine(20000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pegasus.Tasks.Total != 4 || r.Triana.Tasks.Total != 4 {
		t.Errorf("task totals: %d vs %d", r.Pegasus.Tasks.Total, r.Triana.Tasks.Total)
	}
	if r.Pegasus.Jobs.Total != 6 {
		t.Errorf("pegasus jobs = %d (want 4 compute + 2 staging)", r.Pegasus.Jobs.Total)
	}
	if r.Triana.Jobs.Total != 4 {
		t.Errorf("triana jobs = %d (want 1:1)", r.Triana.Jobs.Total)
	}
	if r.Pegasus.Tasks.Succeeded != r.Triana.Tasks.Succeeded {
		t.Error("task outcomes diverge")
	}
	out := RenderCrossEngine(r)
	if !strings.Contains(out, "Pegasus") || !strings.Contains(out, "Triana") {
		t.Error("render incomplete")
	}
}

func TestAnomalyExperimentQuality(t *testing.T) {
	r, err := RunAnomaly()
	if err != nil {
		t.Fatal(err)
	}
	if r.Recall() < 0.9 {
		t.Errorf("straggler recall = %.2f", r.Recall())
	}
	if r.Precision() < 0.9 {
		t.Errorf("straggler precision = %.2f", r.Precision())
	}
	if r.AnomaliesStraggler == 0 {
		t.Error("no runtime anomalies on the straggler run")
	}
	if r.AnomaliesClean > 2 {
		t.Errorf("clean run flagged %d times", r.AnomaliesClean)
	}
	if r.FailingScore <= r.HealthyScore {
		t.Errorf("predictor: failing %.3f <= healthy %.3f", r.FailingScore, r.HealthyScore)
	}
	out := RenderAnomaly(r)
	if !strings.Contains(out, "precision") {
		t.Error("render incomplete")
	}
}
