// Package telemetry is the repo's self-monitoring layer: a stdlib-only
// metrics registry with lock-free counters and gauges, fixed-bucket
// latency histograms and labeled metric families, exposed in the
// Prometheus text format (expose.go) and optionally alongside
// net/http/pprof on a debug server (debug.go).
//
// The paper argues that a monitoring infrastructure must itself be
// observable in real time; this package is that layer for our own stack.
// Every hot path in the broker, loader, WAL and archive increments these
// metrics unconditionally, so the increment cost is held to a single
// atomic operation with zero allocations (BenchmarkTelemetryOverhead
// enforces this). Instrumentation sites pre-resolve labeled children at
// setup time — Vec.With does take a lock and must stay off hot paths.
//
// Metrics register on the package Default registry under get-or-create
// semantics: two instances of one subsystem share one family, which is
// the process-wide aggregation Prometheus expects.
package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Standard bucket layouts. DurationBuckets spans 10µs (an uncontended
// in-memory batch apply) to 10s (a pathological stall); SizeBuckets is
// powers of two up to the loader's largest sensible batch.
var (
	DurationBuckets = []float64{
		1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
	SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
)

// Counter is a monotonically increasing metric. Inc and Add are single
// atomic operations with no allocations.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer-valued metric that can go up and down. All methods
// are single atomic operations with no allocations.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// SetMax raises the gauge to v if v is larger: a lock-free high-water
// mark.
func (g *Gauge) SetMax(v int64) {
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// funcGauge is a gauge evaluated at scrape time, for values the owner
// already tracks (channel depths, table row counts).
type funcGauge struct{ fn func() float64 }

// funcCounter is a counter evaluated at scrape time, for cumulative
// totals the owner already tracks as atomics (the bp event-pool stats).
// The function must be monotonically non-decreasing.
type funcCounter struct{ fn func() float64 }

// Histogram counts observations into fixed buckets. Observe is lock-free:
// one atomic add per bucket/count and a CAS loop for the sum, with no
// allocations.
type Histogram struct {
	upper  []float64 // bucket upper bounds, ascending; +Inf implied last
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DurationBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram buckets not ascending: %v", buckets))
		}
	}
	return &Histogram{
		upper:  buckets,
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with a fixed label schema and one child per
// label-value combination. Unlabeled metrics are a family with a single
// child under the empty key.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64

	mu       sync.RWMutex
	children map[string]any // *Counter | *Gauge | funcGauge | funcCounter | *Histogram
}

// labelKey joins label values into a map key. \xff never appears in
// well-formed label values (they are UTF-8 metric identifiers here).
func labelKey(values []string) string { return strings.Join(values, "\xff") }

func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = make()
	f.children[key] = c
	return c
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry, or use the package-level Default registry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that instrumented subsystems
// register on and debug servers expose.
func Default() *Registry { return defaultRegistry }

// family returns the named family, creating it on first use. Re-requests
// must agree on kind and label schema; a mismatch is a programming error
// and panics.
func (r *Registry) family(name, help string, k kind, labels []string, buckets []float64) *family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.families[name]
		if !ok {
			f = &family{
				name: name, help: help, kind: k,
				labels:   append([]string(nil), labels...),
				buckets:  append([]float64(nil), buckets...),
				children: make(map[string]any),
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != k || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("telemetry: metric %s re-registered as %s(%v), was %s(%v)",
			name, k, labels, f.kind, f.labels))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("telemetry: metric %s re-registered with labels %v, was %v", name, labels, f.labels))
		}
	}
	return f
}

// Counter returns the unlabeled counter with this name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, nil, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the unlabeled gauge with this name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, nil, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers (or replaces) an unlabeled gauge whose value is
// computed by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	f.children[""] = funcGauge{fn}
	f.mu.Unlock()
}

// CounterFunc registers (or replaces) an unlabeled counter whose value
// is computed by fn at scrape time. fn must be monotonically
// non-decreasing — use it to expose cumulative totals a subsystem
// already maintains, not derived values.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindCounter, nil, nil)
	f.mu.Lock()
	f.children[""] = funcCounter{fn}
	f.mu.Unlock()
}

// Histogram returns the unlabeled histogram with this name, creating it
// on first use. Buckets are upper bounds in ascending order; nil means
// DurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, kindHistogram, nil, buckets)
	return f.child(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with this name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, labels, nil)}
}

// With returns the child for the given label values, creating it on first
// use. Resolve children once at setup; this call locks.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with this name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, labels, nil)}
}

// With returns the child for the given label values, creating it on first
// use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// SetFunc installs (or replaces) a scrape-time gauge for the given label
// values, e.g. a queue-depth probe.
func (v *GaugeVec) SetFunc(fn func() float64, values ...string) {
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s wants %d label values, got %d", v.f.name, len(v.f.labels), len(values)))
	}
	v.f.mu.Lock()
	v.f.children[labelKey(values)] = funcGauge{fn}
	v.f.mu.Unlock()
}

// Delete removes the child for the given label values (e.g. when a queue
// is deleted). Unknown children are a no-op.
func (v *GaugeVec) Delete(values ...string) {
	v.f.mu.Lock()
	delete(v.f.children, labelKey(values))
	v.f.mu.Unlock()
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family with this name. All
// children share the bucket layout fixed at first registration.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, labels, buckets)}
}

// With returns the child for the given label values, creating it on first
// use. Resolve children once at setup; this call locks.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// Package-level conveniences over the Default registry; instrumented
// subsystems use these in their var blocks. "New" here means get-or-
// create: a second call with the same name returns the same metric.

// NewCounter returns a counter on the Default registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.Counter(name, help) }

// NewGauge returns a gauge on the Default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.Gauge(name, help) }

// NewGaugeFunc registers a scrape-time gauge on the Default registry.
func NewGaugeFunc(name, help string, fn func() float64) { defaultRegistry.GaugeFunc(name, help, fn) }

// NewCounterFunc registers a scrape-time counter on the Default registry.
func NewCounterFunc(name, help string, fn func() float64) {
	defaultRegistry.CounterFunc(name, help, fn)
}

// NewHistogram returns a histogram on the Default registry.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return defaultRegistry.Histogram(name, help, buckets)
}

// NewCounterVec returns a labeled counter family on the Default registry.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return defaultRegistry.CounterVec(name, help, labels...)
}

// NewGaugeVec returns a labeled gauge family on the Default registry.
func NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return defaultRegistry.GaugeVec(name, help, labels...)
}

// NewHistogramVec returns a labeled histogram family on the Default registry.
func NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return defaultRegistry.HistogramVec(name, help, buckets, labels...)
}
