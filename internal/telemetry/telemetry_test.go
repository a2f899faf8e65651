package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Error("get-or-create returned a different counter")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-2)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Errorf("SetMax lowered gauge to %d", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Errorf("SetMax = %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "a histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 102.65; got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
	// Non-cumulative per-bucket: ≤0.1 gets 2 (0.05 and the boundary 0.1),
	// ≤1 gets 1, ≤10 gets 1, +Inf gets 1.
	want := []uint64{2, 1, 1, 1}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestVecChildrenAndDelete(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs_total", "requests", "route")
	a := v.With("/a")
	if v.With("/a") != a {
		t.Error("With returned a different child for same labels")
	}
	a.Inc()
	v.With("/b").Add(2)

	g := r.GaugeVec("depth", "queue depth", "queue")
	g.With("q1").Set(3)
	g.SetFunc(func() float64 { return 42 }, "q2")
	g.Delete("q1")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`reqs_total{route="/a"} 1`,
		`reqs_total{route="/b"} 2`,
		`depth{queue="q2"} 42`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `depth{queue="q1"}`) {
		t.Errorf("deleted child still exposed:\n%s", out)
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_events_total", "events seen").Add(3)
	r.GaugeFunc("app_temp", "a func gauge", func() float64 { return 1.5 })
	h := r.HistogramVec("app_lat_seconds", "latency", []float64{0.5, 1}, "route")
	h.With("/x").Observe(0.2)
	h.With("/x").Observe(3)
	r.CounterVec("app_odd_total", `quote " and slash \`, "k").With("a\"b\\c\nd").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP app_events_total events seen
# TYPE app_events_total counter
app_events_total 3
# HELP app_lat_seconds latency
# TYPE app_lat_seconds histogram
app_lat_seconds_bucket{route="/x",le="0.5"} 1
app_lat_seconds_bucket{route="/x",le="1"} 1
app_lat_seconds_bucket{route="/x",le="+Inf"} 2
app_lat_seconds_sum{route="/x"} 3.2
app_lat_seconds_count{route="/x"} 2
# HELP app_odd_total quote " and slash \\
# TYPE app_odd_total counter
app_odd_total{k="a\"b\\c\nd"} 1
# HELP app_temp a func gauge
# TYPE app_temp gauge
app_temp 1.5
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHotPathAllocFree is the satellite guarantee behind "cheap enough to
// leave always-on": every hot-path operation performs zero allocations.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", DurationBuckets)
	t0 := time.Now()
	cases := []struct {
		name string
		op   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(9) }},
		{"Gauge.SetMax", func() { g.SetMax(11) }},
		{"Histogram.Observe", func() { h.Observe(0.004) }},
		{"Histogram.ObserveSince", func() { h.ObserveSince(t0) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.op); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", tc.name, allocs)
		}
	}
}

// TestConcurrent hammers one family from many goroutines while scraping;
// meaningful under -race.
func TestConcurrent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("c_total", "", "worker")
	h := r.Histogram("h_seconds", "", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := v.With(string(rune('a' + i)))
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) / 1000)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	var total uint64
	for i := 0; i < 8; i++ {
		total += v.With(string(rune('a' + i))).Value()
	}
	if total != 8000 {
		t.Errorf("counter total = %d, want 8000", total)
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

// BenchmarkTelemetryOverhead proves the always-on claim: counter
// increments and histogram observes are single-digit nanoseconds and
// allocation-free (the alloc floor is additionally asserted by
// TestHotPathAllocFree, so a regression fails `go test`, not just a
// benchmark eyeball).
func BenchmarkTelemetryOverhead(b *testing.B) {
	r := NewRegistry()
	b.Run("CounterInc", func(b *testing.B) {
		c := r.Counter("bench_c_total", "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("GaugeSet", func(b *testing.B) {
		g := r.Gauge("bench_g", "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Set(int64(i))
		}
	})
	b.Run("HistogramObserve", func(b *testing.B) {
		h := r.Histogram("bench_h_seconds", "", DurationBuckets)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(0.0003)
		}
	})
	b.Run("CounterIncParallel", func(b *testing.B) {
		c := r.Counter("bench_cp_total", "")
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }
