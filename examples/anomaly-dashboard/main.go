// Live monitoring with anomaly detection: synthesized workflow traces —
// one healthy, one with a straggler host and injected failures — are
// loaded into one archive; the analysis layer flags the straggler and the
// runtime outliers, and the web dashboard serves the live state.
//
//	go run ./examples/anomaly-dashboard            # prints findings and exits
//	go run ./examples/anomaly-dashboard -serve :8080   # also serves the dashboard
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"net/http"

	"repro/internal/analysis"
	"repro/internal/archive"
	"repro/internal/dashboard"
	"repro/internal/loader"
	"repro/internal/query"
	"repro/internal/synth"
)

func main() {
	serve := flag.String("serve", "", "serve the dashboard at this address after analysis")
	flag.Parse()

	arch := archive.NewInMemory()
	l, err := loader.New(arch, loader.Options{})
	if err != nil {
		log.Fatal(err)
	}

	load := func(cfg synth.Config) *synth.Trace {
		tr := synth.Generate(cfg)
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			log.Fatal(err)
		}
		stats, err := l.LoadReader(&buf)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %q: %d events at %.0f events/s\n", cfg.Label, stats.Loaded, stats.Rate())
		return tr
	}

	jt := []synth.JobType{{Name: "render", MeanSeconds: 60, StddevPct: 0.08, Weight: 1}}
	healthy := load(synth.Config{Seed: 1, Label: "healthy-run", Jobs: 100, Hosts: 5, SlotsPerHost: 2, JobTypes: jt})
	troubled := load(synth.Config{
		Seed: 2, Label: "troubled-run", Jobs: 100, Hosts: 5, SlotsPerHost: 2, JobTypes: jt,
		HostSlowdown: map[int]float64{3: 5.0}, // worker4 runs 5x slow
		FailureRate:  0.1,
		MaxRetries:   2,
	})

	q := query.New(arch)
	troubledWf, err := q.WorkflowByUUID(troubled.RootUUID)
	if err != nil || troubledWf == nil {
		log.Fatal("troubled workflow missing")
	}

	// Straggler hosts: leave-one-out mean comparison.
	samples, err := analysis.HostSamples(q, troubledWf.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nhost analysis of the troubled run:")
	for _, r := range analysis.StragglerHosts(samples, 1.5, 5) {
		marker := ""
		if r.Straggler {
			marker = "  <-- STRAGGLER"
		}
		fmt.Printf("  %-10s mean %6.1fs over %3d invocations (peers: %6.1fs)%s\n",
			r.Host, r.Mean, r.Samples, r.GlobalMean, marker)
	}

	// Per-invocation runtime anomalies.
	det := analysis.NewRuntimeDetector()
	det.Threshold = 4
	anomalies, err := analysis.DetectRuntimeAnomalies(q, troubledWf.ID, det)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nruntime anomalies flagged: %d\n", len(anomalies))
	for i, a := range anomalies {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(anomalies)-5)
			break
		}
		fmt.Printf("  %s\n", a)
	}

	// Failure prediction: train on the healthy run, score both.
	nb := analysis.NewNaiveBayes(analysis.FeatureDim)
	healthyWf, _ := q.WorkflowByUUID(healthy.RootUUID)
	fh, err := analysis.WorkflowFeatures(q, healthyWf.ID)
	if err != nil {
		log.Fatal(err)
	}
	ft, err := analysis.WorkflowFeatures(q, troubledWf.ID)
	if err != nil {
		log.Fatal(err)
	}
	_ = nb.Train(fh, false)
	_ = nb.Train(ft, true)
	pH, _ := nb.Predict(fh)
	pT, _ := nb.Predict(ft)
	fmt.Printf("\nfailure-likelihood scores: healthy %.3f, troubled %.3f\n", pH, pT)

	if *serve != "" {
		fmt.Printf("\nserving dashboard at http://%s\n", *serve)
		if err := http.ListenAndServe(*serve, dashboard.New(q)); err != nil {
			log.Fatal(err)
		}
	}
}
