package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstDirectComputation(t *testing.T) {
	xs := []float64{74, 75, 74, 75, 36, 1, 1, 64, 51}
	var w Welford
	for _, x := range xs {
		w.Observe(x)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(xs)-1)
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Errorf("mean %v want %v", w.Mean(), mean)
	}
	if math.Abs(w.Var()-variance) > 1e-9 {
		t.Errorf("var %v want %v", w.Var(), variance)
	}
	if w.N() != len(xs) {
		t.Errorf("n = %d", w.N())
	}
}

func TestWelfordPropertyMeanWithinBounds(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			w.Observe(x)
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		if w.N() == 0 {
			return true
		}
		return w.Mean() >= lo-1e-6 && w.Mean() <= hi+1e-6 && w.Var() >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeDetectorFlagsOutlier(t *testing.T) {
	d := NewRuntimeDetector()
	// Warm up with consistent runtimes around 74s.
	base := []float64{73, 74, 75, 74, 73, 75, 74, 74}
	for _, x := range base {
		if _, bad := d.Observe("exec", x); bad {
			t.Fatalf("baseline flagged: %v", x)
		}
	}
	a, bad := d.Observe("exec", 400)
	if !bad {
		t.Fatal("5x runtime not flagged")
	}
	if a.Group != "exec" || a.Score < 3 {
		t.Errorf("anomaly = %+v", a)
	}
	// The outlier must not poison the baseline.
	if _, bad := d.Observe("exec", 74); bad {
		t.Error("normal runtime flagged after outlier")
	}
	st := d.GroupStats("exec")
	if st.Mean() > 100 {
		t.Errorf("outlier polluted mean: %v", st.Mean())
	}
}

func TestRuntimeDetectorWarmup(t *testing.T) {
	d := NewRuntimeDetector()
	// First MinSamples observations are never flagged, however odd.
	for i, x := range []float64{1, 1000, 2, 900, 3} {
		if _, bad := d.Observe("noisy", x); bad {
			t.Fatalf("observation %d flagged during warm-up", i)
		}
	}
}

func TestRuntimeDetectorSeparatesGroups(t *testing.T) {
	d := NewRuntimeDetector()
	for i := 0; i < 10; i++ {
		d.Observe("fast", 1.0+0.01*float64(i%3))
		d.Observe("slow", 74.0+0.5*float64(i%3))
	}
	// A 74s runtime is normal for "slow" but anomalous for "fast".
	if _, bad := d.Observe("slow", 74.5); bad {
		t.Error("normal slow runtime flagged")
	}
	if _, bad := d.Observe("fast", 74.5); !bad {
		t.Error("fast-group outlier missed")
	}
}

func TestStragglerHosts(t *testing.T) {
	samples := map[string][]float64{
		"worker1": {70, 72, 74, 71},
		"worker2": {73, 75, 74, 72},
		"worker3": {290, 310, 305, 298}, // 4x slower
	}
	reports := StragglerHosts(samples, 1.5, 3)
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, r := range reports {
		want := r.Host == "worker3"
		if r.Straggler != want {
			t.Errorf("%s straggler=%v, want %v (ratio %.2f)", r.Host, r.Straggler, want, r.Ratio)
		}
	}
}

func TestStragglerHostsMinSamples(t *testing.T) {
	samples := map[string][]float64{
		"worker1": {70, 71, 72, 70},
		"worker2": {900}, // slow but only one sample
	}
	reports := StragglerHosts(samples, 1.5, 3)
	for _, r := range reports {
		if r.Host == "worker2" {
			t.Error("host with too few samples got a verdict")
		}
	}
}

func TestNaiveBayesSeparatesClasses(t *testing.T) {
	nb := NewNaiveBayes(2)
	// Class false: low failure fraction, low retry rate. Class true: high.
	for i := 0; i < 50; i++ {
		jitter := float64(i%5) * 0.01
		if err := nb.Train([]float64{0.02 + jitter, 0.1 + jitter}, false); err != nil {
			t.Fatal(err)
		}
		if err := nb.Train([]float64{0.6 + jitter, 1.5 + jitter}, true); err != nil {
			t.Fatal(err)
		}
	}
	if !nb.Trained() {
		t.Fatal("not trained")
	}
	pGood, err := nb.Predict([]float64{0.03, 0.12})
	if err != nil {
		t.Fatal(err)
	}
	pBad, err := nb.Predict([]float64{0.55, 1.4})
	if err != nil {
		t.Fatal(err)
	}
	if pGood > 0.2 {
		t.Errorf("healthy workflow scored %v", pGood)
	}
	if pBad < 0.8 {
		t.Errorf("failing workflow scored %v", pBad)
	}
}

func TestNaiveBayesEdgeCases(t *testing.T) {
	nb := NewNaiveBayes(1)
	if p, _ := nb.Predict([]float64{1}); p != 0.5 {
		t.Errorf("untrained prior = %v", p)
	}
	_ = nb.Train([]float64{1}, false)
	if p, _ := nb.Predict([]float64{1}); p != 0 {
		t.Errorf("single-class prior = %v", p)
	}
	if err := nb.Train([]float64{1, 2}, true); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := nb.Predict([]float64{1, 2}); err == nil {
		t.Error("predict dimension mismatch accepted")
	}
}

// Trained reports whether both classes have at least one example.
func (nb *NaiveBayes) Trained() bool { return nb.count[0] > 0 && nb.count[1] > 0 }

// GroupStats returns a copy of a group's accumulator (zero value when the
// group is unknown).
func (d *RuntimeDetector) GroupStats(group string) Welford {
	d.mu.Lock()
	defer d.mu.Unlock()
	if w, ok := d.groups[group]; ok {
		return *w
	}
	return Welford{}
}
