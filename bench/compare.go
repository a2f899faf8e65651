package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// declared is the part of BENCHMARK.json the comparison reads.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return (sorted[(n-1)/2] + sorted[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the acceptance driver computes spreads from.
func quartiles(sorted []float64) (q1, q3 float64) {
	m := len(sorted)
	if m < 2 {
		return median(sorted), median(sorted)
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// side is one file's untraced runs of one workload × metric.
type side struct {
	values      []float64 // sorted
	med, spread float64   // spread = (q3 − q1) ÷ median
	q1, q3      float64
}

func newSide(f *resultFile, workload, metric string) side {
	var s side
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			if m, ok := r.Metrics[metric]; ok {
				s.values = append(s.values, m.Value)
			}
		}
	}
	sort.Float64s(s.values)
	s.med = median(s.values)
	s.q1, s.q3 = quartiles(s.values)
	s.spread = ratio(s.q3-s.q1, s.med)
	return s
}

// verdict applies the no-regression rule of the choosing-metrics guide to
// one workload × metric: b is worse when its median is worse than a's by
// more than the bound and by more than the runs scatter; a difference or
// a scatter the runs cannot resolve against the bound is unresolved, not
// same, unless every run of b reads better than every run of a.
func verdict(a, b side, higherBetter bool, bound float64) string {
	if len(a.values) == 0 || len(b.values) == 0 {
		return "unresolved"
	}
	worsening := ratio(b.med-a.med, a.med)
	allBetter := b.values[len(b.values)-1] < a.values[0]
	if higherBetter {
		worsening = -worsening
		allBetter = b.values[0] > a.values[len(a.values)-1]
	}
	spread := max(a.spread, b.spread)
	switch {
	case worsening > bound && worsening > spread:
		return "worse"
	case worsening > bound, spread > bound && !allBetter:
		return "unresolved"
	}
	return "same"
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &f, nil
}

var errWorse = errors.New("bench: compare: at least one metric is worse")

// runCompare prints, per workload × end-to-end metric, both files'
// medians and quartiles, the bound BENCHMARK.json fixes and the verdict.
func runCompare(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return errors.New("bench: -compare takes two result files: -compare a.json b.json")
	}
	a, err := readResultFile(paths[0])
	if err != nil {
		return err
	}
	b, err := readResultFile(paths[1])
	if err != nil {
		return err
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("bench: -compare reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	worse := false
	fmt.Fprintf(w, "%-17s %-14s %-9s %25s %25s %6s  %s\n", "workload", "metric", "unit", "a median [q1, q3] n", "b median [q1, q3] n", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range decl.EndToEnd {
			sa, sb := newSide(a, wl.name, m.Name), newSide(b, wl.name, m.Name)
			v := verdict(sa, sb, m.Better == "higher", m.Bound)
			worse = worse || v == "worse"
			cell := func(s side) string {
				return fmt.Sprintf("%.5g [%.5g, %.5g] %d", s.med, s.q1, s.q3, len(s.values))
			}
			fmt.Fprintf(w, "%-17s %-14s %-9s %25s %25s %5.0f%%  %s\n", wl.name, m.Name, m.Unit, cell(sa), cell(sb), 100*m.Bound, v)
		}
	}
	if worse {
		return errWorse
	}
	return nil
}
