package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/archive"
	"repro/internal/loader"
	"repro/internal/query"
	"repro/internal/synth"
)

// AnomalyResult quantifies the analysis layer (E7): straggler-host
// detection precision/recall over synthesized workflows with injected
// slowdowns, and the failure predictor's separation between healthy and
// failing runs — the capabilities the paper lists under "anomaly
// detection" and "performance prediction".
type AnomalyResult struct {
	// Straggler detection across trials.
	Trials         int
	TruePositives  int
	FalsePositives int
	FalseNegatives int
	// Failure-prediction scores on held-out workflows.
	HealthyScore float64
	FailingScore float64
	// Runtime anomalies flagged on one straggler run vs one clean run.
	AnomaliesStraggler int
	AnomaliesClean     int
}

// Precision and Recall of straggler detection.
func (r *AnomalyResult) Precision() float64 {
	if r.TruePositives+r.FalsePositives == 0 {
		return 0
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalsePositives)
}

func (r *AnomalyResult) Recall() float64 {
	if r.TruePositives+r.FalseNegatives == 0 {
		return 0
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalseNegatives)
}

func loadSynth(cfg synth.Config) (*query.QI, *synth.Trace, int64, error) {
	tr := synth.Generate(cfg)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		return nil, nil, 0, err
	}
	a := archive.NewInMemory()
	l, err := loader.New(a, loader.Options{})
	if err != nil {
		return nil, nil, 0, err
	}
	if _, err := l.LoadReader(&buf); err != nil {
		return nil, nil, 0, err
	}
	q := query.New(a)
	wf, err := q.WorkflowByUUID(tr.RootUUID)
	if err != nil || wf == nil {
		return nil, nil, 0, fmt.Errorf("root missing: %v", err)
	}
	return q, tr, wf.ID, nil
}

// RunAnomaly executes the full analysis experiment.
func RunAnomaly() (*AnomalyResult, error) {
	res := &AnomalyResult{}
	jt := []synth.JobType{{Name: "exec", MeanSeconds: 60, StddevPct: 0.08, Weight: 1}}

	// Straggler detection: 8 trials, each with one host slowed 4x.
	const trials = 8
	res.Trials = trials
	for trial := 0; trial < trials; trial++ {
		slowHost := trial % 4
		q, tr, id, err := loadSynth(synth.Config{
			Seed: int64(100 + trial), Jobs: 80, Hosts: 4, SlotsPerHost: 2,
			JobTypes:     jt,
			HostSlowdown: map[int]float64{slowHost: 4.0},
		})
		if err != nil {
			return nil, err
		}
		samples, err := analysis.HostSamples(q, id)
		if err != nil {
			return nil, err
		}
		reports := analysis.StragglerHosts(samples, 1.5, 5)
		found := false
		for _, r := range reports {
			if r.Straggler {
				if r.Host == tr.Hostnames[slowHost] {
					found = true
				} else {
					res.FalsePositives++
				}
			}
		}
		if found {
			res.TruePositives++
		} else {
			res.FalseNegatives++
		}
	}

	// Runtime anomaly counts: straggler run vs clean run.
	qs, _, ids, err := loadSynth(synth.Config{
		Seed: 9, Jobs: 120, Hosts: 6, SlotsPerHost: 2, JobTypes: jt,
		HostSlowdown: map[int]float64{2: 6.0},
	})
	if err != nil {
		return nil, err
	}
	// A 6x straggler sits dozens of sigma out; a 4-sigma threshold keeps
	// the clean run quiet while losing none of the real anomalies.
	det := analysis.NewRuntimeDetector()
	det.Threshold = 4
	anoms, err := analysis.DetectRuntimeAnomalies(qs, ids, det)
	if err != nil {
		return nil, err
	}
	res.AnomaliesStraggler = len(anoms)
	qc, _, idc, err := loadSynth(synth.Config{Seed: 10, Jobs: 120, Hosts: 6, SlotsPerHost: 2, JobTypes: jt})
	if err != nil {
		return nil, err
	}
	detClean := analysis.NewRuntimeDetector()
	detClean.Threshold = 4
	clean, err := analysis.DetectRuntimeAnomalies(qc, idc, detClean)
	if err != nil {
		return nil, err
	}
	res.AnomaliesClean = len(clean)

	// Failure prediction: train on 16 labeled runs, score 2 held-out.
	nb := analysis.NewNaiveBayes(analysis.FeatureDim)
	for seed := int64(0); seed < 8; seed++ {
		qg, _, idg, err := loadSynth(synth.Config{Seed: seed, Jobs: 30, JobTypes: jt})
		if err != nil {
			return nil, err
		}
		fg, err := analysis.WorkflowFeatures(qg, idg)
		if err != nil {
			return nil, err
		}
		if err := nb.Train(fg, false); err != nil {
			return nil, err
		}
		qb, trb, idb, err := loadSynth(synth.Config{
			Seed: seed + 50, Jobs: 30, JobTypes: jt, FailureRate: 0.4, MaxRetries: 2,
		})
		if err != nil {
			return nil, err
		}
		fb, err := analysis.WorkflowFeatures(qb, idb)
		if err != nil {
			return nil, err
		}
		if err := nb.Train(fb, trb.FailedJobs+trb.TotalRetries > 0); err != nil {
			return nil, err
		}
	}
	qh, _, idh, err := loadSynth(synth.Config{Seed: 77, Jobs: 30, JobTypes: jt})
	if err != nil {
		return nil, err
	}
	fh, err := analysis.WorkflowFeatures(qh, idh)
	if err != nil {
		return nil, err
	}
	res.HealthyScore, err = nb.Predict(fh)
	if err != nil {
		return nil, err
	}
	qf, _, idf, err := loadSynth(synth.Config{Seed: 177, Jobs: 30, JobTypes: jt, FailureRate: 0.4, MaxRetries: 2})
	if err != nil {
		return nil, err
	}
	ff, err := analysis.WorkflowFeatures(qf, idf)
	if err != nil {
		return nil, err
	}
	res.FailingScore, err = nb.Predict(ff)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RenderAnomaly formats the analysis-experiment report.
func RenderAnomaly(r *AnomalyResult) string {
	var b strings.Builder
	b.WriteString("Analysis experiment — anomaly detection and failure prediction\n")
	b.WriteString("(capabilities the paper's §IV lists; methodology follows its reference [37])\n\n")
	fmt.Fprintf(&b, "straggler-host detection over %d trials (one 4x-slow host each):\n", r.Trials)
	fmt.Fprintf(&b, "  precision %.2f  recall %.2f  (TP=%d FP=%d FN=%d)\n",
		r.Precision(), r.Recall(), r.TruePositives, r.FalsePositives, r.FalseNegatives)
	fmt.Fprintf(&b, "runtime anomaly flags: straggler run %d, clean run %d\n",
		r.AnomaliesStraggler, r.AnomaliesClean)
	fmt.Fprintf(&b, "failure predictor P(fail): healthy run %.3f, failing run %.3f\n",
		r.HealthyScore, r.FailingScore)
	return b.String()
}
