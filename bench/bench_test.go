package main

import (
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"slices"
	"testing"

	"repro/internal/mq"
)

// benchmarkJSON is the declaration the emitted names are held to.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// small shrinks a workload to a few thousand lines: the same wiring,
// rates and window, a fraction of a second of stream.
func small(wl workload) workload {
	wl.linesPerSecond = 3000
	if wl.rate == 0 {
		wl.linesPerSecond = 6000 // more than one window, so the closed loop blocks
	}
	if wl.preloadPerSecond > 0 {
		wl.preloadPerSecond = 2000
	}
	if wl.sinks > 0 {
		wl.sinks = 20
	}
	return wl
}

// runSmall runs one traced pass of wl over a fresh stream. A run the
// generator guard keeps rejecting (this machine was too busy to hold the
// schedule) is skipped, not failed: the guard is doing its job.
func runSmall(t *testing.T, wl workload, qopts mq.QueueOpts) *result {
	t.Helper()
	in, err := buildInput(42, wl.lines(1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := runValid(wl, in, 0, 42, 1, true, qopts, func() (string, func(), error) { return t.TempDir(), func() {}, nil })
	if errors.Is(err, errInvalidRun) {
		t.Skipf("generator could not hold its schedule: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWorkloadShapes(t *testing.T) {
	decl := readBenchmarkJSON(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, wl := range workloads {
		have = append(have, wl.name)
		if !valid.MatchString(wl.name) {
			t.Errorf("workload name %q", wl.name)
		}
	}
	if !equalSets(declared, have) {
		t.Errorf("workloads: BENCHMARK.json declares %v, bench runs %v", declared, have)
	}

	units := map[string]string{}
	var e2e, layer []string
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		layer = append(layer, m.Name)
		units[m.Name] = m.Unit
	}

	// The isolated drives do not depend on the workload: one pass serves
	// every workload's name check.
	iso := &result{Metrics: map[string]metric{}}
	if err := runIsolated(iso, 42, 1, t.TempDir()); err != nil {
		t.Fatal(err)
	}

	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			r := runSmall(t, small(wl), mq.QueueOpts{Durable: true})
			for name, m := range iso.Metrics {
				r.Metrics[name] = m
			}
			for _, c := range r.Checks {
				if !c.OK {
					t.Errorf("check failed: %s (%s)", c.Name, c.Detail)
				}
			}
			if r.Failed != 0 || r.failure() != nil {
				t.Errorf("failed %d of %d attempted, failure %v", r.Failed, r.Attempted, r.failure())
			}
			var gotE2E, gotLayer []string
			for name, m := range r.Metrics {
				if !valid.MatchString(name) {
					t.Errorf("metric name %q", name)
				}
				if units[name] != m.Unit {
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, units[name])
				}
				if m.Layer {
					gotLayer = append(gotLayer, name)
				} else {
					gotE2E = append(gotE2E, name)
					if m.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", name)
					}
				}
			}
			if !equalSets(e2e, gotE2E) {
				t.Errorf("end-to-end metrics: declared %v, emitted %v", sorted(e2e), sorted(gotE2E))
			}
			if !equalSets(layer, gotLayer) {
				t.Errorf("per-layer metrics: declared %v, emitted %v", sorted(layer), sorted(gotLayer))
			}
			checkSpans(t, r.spans)
		})
	}
}

func sorted(s []string) []string {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

func equalSets(a, b []string) bool { return slices.Equal(sorted(a), sorted(b)) }

// checkSpans holds the span file to its contract: every parent exists,
// children lie inside their parent, and the self times of one trace sum
// to its root's duration.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	byID := map[int32]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := selfTimes(spans)
	sum := map[int32]int64{}
	root := map[int32]span{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		sum[s.Trace] += self[s.ID]
		if s.Parent == 0 {
			root[s.Trace] = s
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d %s: parent %d does not exist", s.ID, s.Name, s.Parent)
			continue
		}
		if p.Trace != s.Trace || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d, %d] is not inside its parent %d %s [%d, %d]", s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	for trace, total := range sum {
		r := root[trace]
		if total != r.End-r.Start {
			t.Errorf("trace %d: self times sum to %d ns, root lasts %d ns", trace, total, r.End-r.Start)
		}
	}
}

// TestTinyQueueLossIsNotHidden overflows a 64-slot queue on the
// in-process path: the run must count the loss and report failure.
func TestTinyQueueLossIsNotHidden(t *testing.T) {
	wl := workload{name: "tiny_queue", linesPerSecond: 6000}
	r := runSmall(t, wl, mq.QueueOpts{Durable: true, Capacity: 64})
	if r.Metrics["mq.dropped"].Value == 0 {
		t.Fatal("a 64-slot queue under a 4,096 window dropped nothing")
	}
	if r.Failed == 0 || r.Metrics["failed_ratio"].Value <= 0 {
		t.Errorf("failed %d, failed_ratio %v: the loss is hidden", r.Failed, r.Metrics["failed_ratio"].Value)
	}
	if r.failure() == nil {
		t.Error("a run that lost events would exit 0")
	}
	for _, c := range r.Checks {
		if c.Name == "conservation: published = tapped + dropped" && !c.OK {
			t.Errorf("drops must still balance: %s", c.Detail)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	mk := func(vs ...float64) side {
		f := &resultFile{}
		for _, v := range vs {
			f.Runs = append(f.Runs, &result{Workload: "w", Metrics: map[string]metric{"m": {Value: v}}})
		}
		return newSide(f, "w", "m")
	}
	tight := mk(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		name   string
		a, b   side
		higher bool
		bound  float64
		want   string
	}{
		{"identical", tight, tight, false, 0.1, "same"},
		{"latency up 30% against a 10% bound", tight, mk(130, 131, 129, 130, 132, 128, 130, 131, 129, 130), false, 0.1, "worse"},
		{"latency down", tight, mk(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), false, 0.1, "same"},
		{"throughput down 30%", tight, mk(70, 71, 69, 70, 72, 68, 70, 71, 69, 70), true, 0.1, "worse"},
		{"throughput up", tight, mk(130, 131, 129, 130, 132, 128, 130, 131, 129, 130), true, 0.1, "same"},
		{"scatter wider than the bound", mk(60, 140, 100, 80, 120, 100, 70, 130, 90, 110), mk(61, 141, 101, 81, 121, 101, 71, 131, 91, 111), false, 0.1, "unresolved"},
		{"wide scatter but every run better", mk(60, 140, 100, 80, 120, 100, 70, 130, 90, 110), mk(10, 20, 15, 12, 18, 15, 11, 19, 14, 16), false, 0.1, "same"},
		{"worse by more than the bound but inside the scatter", mk(60, 140, 100, 80, 120, 100, 70, 130, 90, 110), mk(75, 155, 115, 95, 135, 115, 85, 145, 105, 125), false, 0.1, "unresolved"},
		{"one side missing", tight, mk(), false, 0.1, "unresolved"},
	} {
		if got := verdict(tc.a, tc.b, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
