package analysis

import (
	"errors"
	"math"
)

// NaiveBayes is a Gaussian naive Bayes binary classifier over fixed-width
// float feature vectors: the workflow-level failure predictor of the
// Stampede analysis work. Features are aggregate workflow statistics
// (failure fraction so far, retry rate, mean queue delay, ...).
type NaiveBayes struct {
	dim   int
	stats [2][]Welford // per class, per feature
	count [2]int
}

// NewNaiveBayes returns a classifier over dim-dimensional features.
func NewNaiveBayes(dim int) *NaiveBayes {
	nb := &NaiveBayes{dim: dim}
	for c := 0; c < 2; c++ {
		nb.stats[c] = make([]Welford, dim)
	}
	return nb
}

// Train folds in one labeled example (label true = positive class, e.g.
// "workflow failed").
func (nb *NaiveBayes) Train(features []float64, label bool) error {
	if len(features) != nb.dim {
		return errors.New("analysis: feature dimension mismatch")
	}
	c := 0
	if label {
		c = 1
	}
	nb.count[c]++
	for i, f := range features {
		nb.stats[c][i].Observe(f)
	}
	return nil
}

// Predict returns P(label=true | features). With an untrained class it
// returns the prior of the trained data.
func (nb *NaiveBayes) Predict(features []float64) (float64, error) {
	if len(features) != nb.dim {
		return 0, errors.New("analysis: feature dimension mismatch")
	}
	total := nb.count[0] + nb.count[1]
	if total == 0 {
		return 0.5, nil
	}
	if nb.count[0] == 0 {
		return 1, nil
	}
	if nb.count[1] == 0 {
		return 0, nil
	}
	var logp [2]float64
	for c := 0; c < 2; c++ {
		logp[c] = math.Log(float64(nb.count[c]) / float64(total))
		for i, f := range features {
			w := nb.stats[c][i]
			mean := w.Mean()
			// Variance smoothing keeps degenerate (constant) features from
			// producing infinite likelihoods.
			v := w.Var() + 1e-6
			logp[c] += -0.5*math.Log(2*math.Pi*v) - (f-mean)*(f-mean)/(2*v)
		}
	}
	// Softmax over the two log-probabilities.
	m := math.Max(logp[0], logp[1])
	p0 := math.Exp(logp[0] - m)
	p1 := math.Exp(logp[1] - m)
	return p1 / (p0 + p1), nil
}
