package analysis

import (
	"bytes"
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
		t.Fatalf("root missing: %v", err)
	}
	return q, tr, wf.ID
}

func TestWorkflowFeaturesHealthyVsFailing(t *testing.T) {
	qGood, _, goodID := load(t, synth.Config{Seed: 1, Jobs: 30})
	qBad, trBad, badID := load(t, synth.Config{Seed: 11, Jobs: 30, FailureRate: 0.5, MaxRetries: 1})
	if trBad.FailedJobs == 0 {
		t.Skip("no failures generated")
	}
	fg, err := WorkflowFeatures(qGood, goodID)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := WorkflowFeatures(qBad, badID)
	if err != nil {
		t.Fatal(err)
	}
	if len(fg) != FeatureDim || len(fb) != FeatureDim {
		t.Fatalf("dims = %d, %d", len(fg), len(fb))
	}
	if fg[0] != 0 {
		t.Errorf("healthy failure fraction = %v", fg[0])
	}
	if fb[0] <= fg[0] || fb[1] <= fg[1] {
		t.Errorf("failing workflow features not separated: good=%v bad=%v", fg, fb)
	}
}

func TestFailurePredictionEndToEnd(t *testing.T) {
	// Train the classifier on a corpus of synthetic workflows with and
	// without injected faults, then verify it classifies held-out runs.
	nb := NewNaiveBayes(FeatureDim)
	for seed := int64(0); seed < 10; seed++ {
		qg, _, idg := load(t, synth.Config{Seed: seed, Jobs: 20})
		fg, err := WorkflowFeatures(qg, idg)
		if err != nil {
			t.Fatal(err)
		}
		if err := nb.Train(fg, false); err != nil {
			t.Fatal(err)
		}
		qb, trb, idb := load(t, synth.Config{Seed: seed + 100, Jobs: 20, FailureRate: 0.45, MaxRetries: 2})
		fb, err := WorkflowFeatures(qb, idb)
		if err != nil {
			t.Fatal(err)
		}
		if err := nb.Train(fb, trb.FailedJobs > 0 || trb.TotalRetries > 0); err != nil {
			t.Fatal(err)
		}
	}
	if !nb.Trained() {
		t.Skip("corpus produced a single class")
	}
	qh, _, idh := load(t, synth.Config{Seed: 77, Jobs: 20})
	fh, _ := WorkflowFeatures(qh, idh)
	pHealthy, err := nb.Predict(fh)
	if err != nil {
		t.Fatal(err)
	}
	qf, trf, idf := load(t, synth.Config{Seed: 177, Jobs: 20, FailureRate: 0.45, MaxRetries: 2})
	ff, _ := WorkflowFeatures(qf, idf)
	pFailing, err := nb.Predict(ff)
	if err != nil {
		t.Fatal(err)
	}
	if trf.FailedJobs+trf.TotalRetries == 0 {
		t.Skip("held-out failing run had no faults")
	}
	if pFailing <= pHealthy {
		t.Errorf("failing run scored %v <= healthy %v", pFailing, pHealthy)
	}
}

func TestDetectRuntimeAnomaliesFindsInjectedStraggler(t *testing.T) {
	// One host 6x slower than its peers: its invocations should be
	// flagged against the transformation's distribution.
	q, _, id := load(t, synth.Config{
		Seed: 9, Jobs: 120, Hosts: 6, SlotsPerHost: 2,
		JobTypes:     []synth.JobType{{Name: "exec", MeanSeconds: 60, StddevPct: 0.05, Weight: 1}},
		HostSlowdown: map[int]float64{2: 6.0},
	})
	anomalies, err := DetectRuntimeAnomalies(q, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(anomalies) == 0 {
		t.Fatal("injected 6x straggler produced no anomalies")
	}
	for _, a := range anomalies {
		if a.Group != "exec" {
			t.Errorf("anomaly in unexpected group %q", a.Group)
		}
		if a.Value < a.Expected {
			t.Errorf("flagged a fast run: %+v", a)
		}
	}
}

func TestDetectRuntimeAnomaliesCleanRunQuiet(t *testing.T) {
	q, _, id := load(t, synth.Config{
		Seed: 10, Jobs: 100, Hosts: 4,
		JobTypes: []synth.JobType{{Name: "exec", MeanSeconds: 60, StddevPct: 0.1, Weight: 1}},
	})
	anomalies, err := DetectRuntimeAnomalies(q, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Normal variation should produce at most a stray flag or two, not a
	// flood (100 invocations, 3-sigma threshold).
	if len(anomalies) > 3 {
		t.Fatalf("clean run flagged %d times", len(anomalies))
	}
}

func TestHostSamplesAndStragglerPipeline(t *testing.T) {
	q, tr, id := load(t, synth.Config{
		Seed: 12, Jobs: 90, Hosts: 3, SlotsPerHost: 2,
		JobTypes:     []synth.JobType{{Name: "exec", MeanSeconds: 50, StddevPct: 0.05, Weight: 1}},
		HostSlowdown: map[int]float64{1: 4.0},
	})
	samples, err := HostSamples(q, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("hosts sampled = %d", len(samples))
	}
	total := 0
	for _, xs := range samples {
		total += len(xs)
	}
	if total != 90 {
		t.Errorf("samples = %d, want 90", total)
	}
	reports := StragglerHosts(samples, 1.5, 5)
	found := false
	for _, r := range reports {
		if r.Host == tr.Hostnames[1] {
			if !r.Straggler {
				t.Errorf("slowed host not flagged: %+v", r)
			}
			found = true
		} else if r.Straggler {
			t.Errorf("healthy host %s flagged (ratio %.2f)", r.Host, r.Ratio)
		}
	}
	if !found {
		t.Error("slowed host missing from reports")
	}
}
