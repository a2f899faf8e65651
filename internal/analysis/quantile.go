package analysis

import (
	"fmt"
	"slices"
)

// P2Quantile is the P² (P-squared) algorithm of Jain & Chlamtac: an
// online estimate of a single quantile in O(1) space, without storing
// observations. The workflow analysis uses it for percentile-based
// runtime thresholds (e.g. flag anything beyond the running p95) where
// keeping full histories for every transformation would not scale to
// CyberShake-sized workflows.
type P2Quantile struct {
	p       float64
	n       int
	heights [5]float64
	pos     [5]float64 // actual marker positions (1-based)
	desired [5]float64
	inc     [5]float64
	initial []float64
}

// NewP2Quantile returns an estimator for the p-quantile (0 < p < 1).
func NewP2Quantile(p float64) (*P2Quantile, error) {
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("analysis: quantile %v out of (0,1)", p)
	}
	q := &P2Quantile{p: p}
	q.pos = [5]float64{1, 2, 3, 4, 5}
	q.desired = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	q.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q, nil
}

// Observe folds one sample in.
func (q *P2Quantile) Observe(x float64) {
	q.n++
	if q.n <= 5 {
		q.initial = append(q.initial, x)
		if q.n == 5 {
			slices.Sort(q.initial)
			copy(q.heights[:], q.initial)
		}
		return
	}
	// Find the cell k such that heights[k] <= x < heights[k+1].
	var k int
	switch {
	case x < q.heights[0]:
		q.heights[0] = x
		k = 0
	case x >= q.heights[4]:
		q.heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < q.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := 0; i < 5; i++ {
		q.desired[i] += q.inc[i]
	}
	// Adjust interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := q.desired[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			h := q.parabolic(i, sign)
			if q.heights[i-1] < h && h < q.heights[i+1] {
				q.heights[i] = h
			} else {
				q.heights[i] = q.linear(i, sign)
			}
			q.pos[i] += sign
		}
	}
}

func (q *P2Quantile) parabolic(i int, d float64) float64 {
	return q.heights[i] + d/(q.pos[i+1]-q.pos[i-1])*
		((q.pos[i]-q.pos[i-1]+d)*(q.heights[i+1]-q.heights[i])/(q.pos[i+1]-q.pos[i])+
			(q.pos[i+1]-q.pos[i]-d)*(q.heights[i]-q.heights[i-1])/(q.pos[i]-q.pos[i-1]))
}

func (q *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return q.heights[i] + d*(q.heights[j]-q.heights[i])/(q.pos[j]-q.pos[i])
}

// N returns the sample count.
func (q *P2Quantile) N() int { return q.n }

// Value returns the current quantile estimate. With fewer than 5 samples
// it falls back to the exact order statistic of what it has seen.
func (q *P2Quantile) Value() float64 {
	if q.n == 0 {
		return 0
	}
	if q.n < 5 {
		// Sorted on the stack: the views publisher reads three estimates
		// per dirty workflow and may not allocate for them.
		var buf [4]float64
		tmp := buf[:copy(buf[:], q.initial)]
		slices.Sort(tmp)
		idx := int(q.p * float64(len(tmp)))
		if idx >= len(tmp) {
			idx = len(tmp) - 1
		}
		return tmp[idx]
	}
	return q.heights[2]
}
