// Package analysis implements the Stampede analysis layer the paper
// builds on the archive (§IV's bullets and reference [37]): online
// anomaly detection for job runtimes, straggler-host identification,
// workflow-level failure prediction, and runtime prediction for
// provisioning estimates.
//
// Everything here is streaming-friendly: detectors consume observations
// one at a time with O(1) state per group, so the same code runs over a
// live event feed or a finished archive.
package analysis

import (
	"fmt"
	"math"
	"sync"
)

// Welford is a numerically stable online mean/variance accumulator.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Observe folds one sample in.
func (w *Welford) Observe(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the sample count.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with <2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Anomaly is one flagged observation.
type Anomaly struct {
	Group    string  // e.g. transformation name
	Value    float64 // observed value
	Expected float64 // group mean at detection time
	Score    float64 // |z|-score
	Detail   string
}

func (a Anomaly) String() string {
	return fmt.Sprintf("%s: value %.2f vs expected %.2f (z=%.1f) %s",
		a.Group, a.Value, a.Expected, a.Score, a.Detail)
}

// RuntimeDetector flags job runtimes that deviate from their
// transformation's running distribution — the job-level "distinguish
// actual failures from normal variation" analysis.
type RuntimeDetector struct {
	mu sync.Mutex
	// Threshold is the |z|-score above which an observation is anomalous.
	// The default 3.0 matches the usual three-sigma rule.
	Threshold float64
	// MinSamples suppresses detection until a group has this many
	// observations, avoiding false alarms on cold statistics.
	MinSamples int
	groups     map[string]*Welford
}

// NewRuntimeDetector returns a detector with the default 3-sigma
// threshold and a 5-sample warm-up per group.
func NewRuntimeDetector() *RuntimeDetector {
	return &RuntimeDetector{Threshold: 3.0, MinSamples: 5, groups: map[string]*Welford{}}
}

// Observe folds one (group, runtime) observation in and reports whether it
// is anomalous against the statistics gathered so far. The observation is
// only added to the group statistics when it is NOT anomalous, so a burst
// of stragglers cannot drag the baseline toward itself.
func (d *RuntimeDetector) Observe(group string, runtime float64) (Anomaly, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.groups[group]
	if !ok {
		w = &Welford{}
		d.groups[group] = w
	}
	if w.N() >= d.MinSamples {
		std := w.Std()
		if std > 0 {
			z := math.Abs(runtime-w.Mean()) / std
			if z >= d.Threshold {
				return Anomaly{
					Group:    group,
					Value:    runtime,
					Expected: w.Mean(),
					Score:    z,
					Detail:   fmt.Sprintf("(n=%d std=%.2f)", w.N(), std),
				}, true
			}
		}
	}
	w.Observe(runtime)
	return Anomaly{}, false
}

// HostReport compares per-host runtime means for one transformation and
// flags stragglers.
type HostReport struct {
	Host       string
	Mean       float64
	GlobalMean float64
	Ratio      float64
	Samples    int
	Straggler  bool
}

// StragglerHosts groups (host, runtime) samples and reports hosts whose
// mean runtime exceeds ratio× the mean of the remaining hosts. minSamples
// guards against verdicts on a handful of jobs.
func StragglerHosts(samples map[string][]float64, ratio float64, minSamples int) []HostReport {
	if ratio <= 1 {
		ratio = 1.5
	}
	var reports []HostReport
	// Global sums for leave-one-out means.
	var totalSum float64
	var totalN int
	perHost := map[string]*Welford{}
	for host, xs := range samples {
		w := &Welford{}
		for _, x := range xs {
			w.Observe(x)
			totalSum += x
			totalN++
		}
		perHost[host] = w
	}
	for host, w := range perHost {
		if w.N() < minSamples {
			continue
		}
		restN := totalN - w.N()
		if restN == 0 {
			continue
		}
		restMean := (totalSum - w.Mean()*float64(w.N())) / float64(restN)
		r := HostReport{
			Host:       host,
			Mean:       w.Mean(),
			GlobalMean: restMean,
			Samples:    w.N(),
		}
		if restMean > 0 {
			r.Ratio = w.Mean() / restMean
			r.Straggler = r.Ratio >= ratio
		}
		reports = append(reports, r)
	}
	return reports
}
