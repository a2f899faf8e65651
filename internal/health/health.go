// Package health is the system's self-monitoring layer: an SLO engine
// that evaluates declarative objectives over multi-window burn rates,
// drives an alert state machine (pending → firing → resolved), and — on
// any transition to firing — snapshots a flight recorder into a
// content-addressed diagnostics bundle (recorder.go). The paper argues a
// monitoring infrastructure must itself be monitored in real time; the
// telemetry package made the stack observable, this package makes it
// self-judging: is this node healthy enough to serve?
//
// Everything here runs at tick time (default 1s), off the hot path.
// Signals are pure reads of state the ingest pipeline already maintains
// — telemetry atomics, archive watermarks, checkpoint stats — so attaching
// an engine adds zero allocations per event (the root
// hotpath_alloc_test.go enforces this with an engine running).
//
// Burn-rate semantics follow SRE multi-window alerting: an objective
// allows a breach-sample budget (say 10% of ticks over the slow window);
// the burn rate is the observed breach fraction divided by that budget,
// and an alert goes pending only while BOTH the fast and the slow window
// burn at or above the configured rate — the fast window makes onset
// quick, the slow window keeps one spike from paging. Resolution is
// deliberately asymmetric: once firing, the alert resolves after the raw
// signal has been continuously clear for ClearFor, so recovery does not
// wait for the slow window's memory to decay.
package health

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relstore"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wfclock"
)

// SignalFunc produces one observation of a health signal. ok=false means
// the signal is not available here (subsystem absent, no new data for
// windowed quantiles); absent observations count against no budget.
// Signals are evaluated exactly once per engine tick — stateful signals
// (rates, histogram deltas) rely on this and must not be shared between
// engines.
type SignalFunc func() (float64, bool)

// Op says which side of the threshold is a breach.
type Op uint8

const (
	// Above breaches when the signal exceeds the threshold.
	Above Op = iota
	// Below breaches when the signal is under the threshold.
	Below
)

// Objective is one declarative SLO.
type Objective struct {
	Name     string `json:"name"`
	Help     string `json:"help,omitempty"`
	Severity string `json:"severity,omitempty"` // "page", "ticket", ...
	Signal   string `json:"signal"`             // registered signal name
	Op       Op     `json:"-"`

	Threshold float64 `json:"threshold"`

	// Budget is the allowed breach fraction of ticks (error budget) per
	// window; 0 means 0.1. BurnRate is the multiple of Budget at which
	// the alert trips; 0 means 1.
	Budget   float64 `json:"budget,omitempty"`
	BurnRate float64 `json:"burn_rate,omitempty"`

	// Fast and Slow are the two burn windows (defaults 1m / 5m). For is
	// the pending-damping duration before firing. ClearFor is how long
	// the raw signal must stay continuously clear before a firing alert
	// resolves; 0 means Fast.
	Fast     time.Duration `json:"fast,omitempty"`
	Slow     time.Duration `json:"slow,omitempty"`
	For      time.Duration `json:"for,omitempty"`
	ClearFor time.Duration `json:"clear_for,omitempty"`

	// GateReady makes /readyz report 503 while this objective fires.
	GateReady bool `json:"gate_ready,omitempty"`
}

func (o Objective) breached(v float64) bool {
	if o.Op == Below {
		return v < o.Threshold
	}
	return v > o.Threshold
}

// State is an objective's position in the alert lifecycle.
type State uint8

const (
	Inactive State = iota
	Pending
	Firing
)

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Firing:
		return "firing"
	default:
		return "inactive"
	}
}

// Alert is one lifecycle transition (or, from Active, a current alert).
// State is the transition entered: "pending", "firing", "resolved", or
// "canceled" (pending that cleared before its For elapsed).
type Alert struct {
	SLO       string    `json:"slo"`
	Severity  string    `json:"severity,omitempty"`
	State     string    `json:"state"`
	Signal    string    `json:"signal"`
	Value     float64   `json:"value"`
	Threshold float64   `json:"threshold"`
	FastBurn  float64   `json:"fast_burn"`
	SlowBurn  float64   `json:"slow_burn"`
	At        time.Time `json:"at"`
	Since     time.Time `json:"since,omitempty"` // pending/firing onset
	BundleID  string    `json:"bundle_id,omitempty"`
}

// Partition is one store partition in the diagnostics bundle: the current
// visibility epoch and checkpoint high-water seq.
type Partition = relstore.PartitionStatus

// Config wires an Engine. The zero value of every field is usable.
type Config struct {
	// Clock paces ticks and timestamps samples; nil means wfclock.Real.
	Clock wfclock.Clock
	// Every is the evaluation interval; 0 means 1s.
	Every time.Duration
	// Ring supplies recent spans for the bundle; nil means
	// trace.Default().
	Ring *trace.Ring
	// BundleDir is where firing transitions write bundle-<id>.tar.gz;
	// empty disables automatic bundle files (/debug/bundle still works).
	BundleDir string
	// OnAlert, if set, observes every transition after it is recorded
	// (bundle ID already attached on firing). Called outside the engine
	// lock from the tick goroutine; must not block for long.
	OnAlert func(Alert)
}

// The transition ring keeps the last retainAlerts transitions, the
// flight recorder the last recorderNotes notes.
const (
	retainAlerts  = 256
	recorderNotes = 512
)

// Engine metrics live on the Default registry like every other
// subsystem's. Gauges are adjusted by delta so concurrent engines (tests)
// compose, and an engine removes its own contribution on Close.
var (
	mEvals = telemetry.NewCounter("stampede_health_evals_total",
		"Health engine evaluation ticks.")
	mBundlesTotal = telemetry.NewCounter("stampede_health_bundles_total",
		"Diagnostics bundles built.")
	mReady = telemetry.NewGauge("stampede_health_ready",
		"1 when no ready-gating objective is firing (most recent engine).")
	mAlertsFiring = telemetry.NewGauge("stampede_alerts_firing",
		"Objectives currently firing.")
	mAlertsPending = telemetry.NewGauge("stampede_alerts_pending",
		"Objectives currently pending (breaching, inside their for-duration).")
	mTransitions = telemetry.NewCounterVec("stampede_alerts_transitions_total",
		"Alert state transitions by entered state.", "state")
	mSignal = telemetry.NewGaugeVec("stampede_health_signal",
		"Last evaluated value of each health signal.", "signal")
	mBurn = telemetry.NewGaugeVec("stampede_health_burn_rate",
		"Error-budget burn rate per objective and window.", "slo", "window")
)

func init() {
	// Pre-resolve every transition child so the family shows up in the
	// exposition (and in dashboards) before the first alert ever fires.
	for _, s := range []string{"pending", "firing", "resolved", "canceled"} {
		mTransitions.With(s)
	}
	mReady.Set(1)
}

type sample struct {
	t      time.Time
	v      float64
	breach bool
	ok     bool
}

type signalState struct {
	fn   SignalFunc
	bits atomic.Uint64 // last value, float64 bits — read by scrape funcs
	ok   atomic.Bool
}

type objState struct {
	o       Objective
	samples []sample // circular, sized to the slow window
	pos, n  int
	state   State
	since   time.Time // pendingSince while pending, firedAt while firing
	// clearSince is the start of the current streak of clean (non-
	// breaching) ticks; zero while the raw signal is breaching.
	clearSince time.Time
	maxBurn    float64
	bundleID   string
	fastBits   atomic.Uint64 // scrape-time burn gauges
	slowBits   atomic.Uint64
}

func (s *objState) push(sm sample) {
	s.samples[s.pos] = sm
	s.pos = (s.pos + 1) % len(s.samples)
	if s.n < len(s.samples) {
		s.n++
	}
}

// frac returns the breach fraction over the trailing window w, walking
// newest-to-oldest. Samples whose signal was absent count as clean.
func (s *objState) frac(now time.Time, w time.Duration) float64 {
	cut := now.Add(-w)
	total, breaches := 0, 0
	for i := 0; i < s.n; i++ {
		sm := s.samples[(s.pos-1-i+len(s.samples))%len(s.samples)]
		if sm.t.Before(cut) {
			break
		}
		total++
		if sm.breach {
			breaches++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(breaches) / float64(total)
}

// Engine evaluates objectives on a tick and owns the alert lifecycle.
type Engine struct {
	cfg Config // defaults filled in by New
	rec *Recorder

	readyBit atomic.Bool // mirrors readiness for lock-free handlers

	mu       sync.Mutex
	store    *relstore.Store // Sources.Store: the partition map of buildinfo and bundles
	signals  map[string]*signalState
	sigOrder []string
	objs     []*objState
	recent   []Alert // transition history, oldest first, bounded
	bundles  []string
	firing   int
	pending  int
	maxBurn  float64
	maxSLO   string
	closed   bool

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New returns an engine; call Register/AddObjective, then Start (or call
// Tick yourself under a manual clock).
func New(cfg Config) *Engine {
	if cfg.Clock == nil {
		cfg.Clock = wfclock.Real
	}
	if cfg.Every <= 0 {
		cfg.Every = time.Second
	}
	if cfg.Ring == nil {
		cfg.Ring = trace.Default()
	}
	e := &Engine{
		cfg:     cfg,
		signals: make(map[string]*signalState),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	e.rec = newRecorder(cfg.Clock, recorderNotes)
	e.readyBit.Store(true)
	return e
}

// Recorder returns the engine's flight recorder for Note calls.
func (e *Engine) Recorder() *Recorder { return e.rec }

// Register adds (or replaces) a named signal. The scrape-time
// stampede_health_signal gauge reads the cached last value, never the
// SignalFunc itself, so stateful signals advance only on ticks.
func (e *Engine) Register(name string, fn SignalFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ss, ok := e.signals[name]
	if !ok {
		ss = &signalState{}
		e.signals[name] = ss
		e.sigOrder = append(e.sigOrder, name)
		mSignal.SetFunc(func() float64 {
			return math.Float64frombits(ss.bits.Load())
		}, name)
	}
	ss.fn = fn
}

// AddObjective validates and installs one objective. The signal must
// already be registered.
func (e *Engine) AddObjective(o Objective) error {
	if o.Name == "" || o.Signal == "" {
		return fmt.Errorf("health: objective needs Name and Signal (got %q/%q)", o.Name, o.Signal)
	}
	if o.Budget <= 0 {
		o.Budget = 0.1
	}
	if o.Budget > 1 {
		return fmt.Errorf("health: objective %s: budget %v > 1", o.Name, o.Budget)
	}
	if o.BurnRate <= 0 {
		o.BurnRate = 1
	}
	if o.Fast <= 0 {
		o.Fast = time.Minute
	}
	if o.Slow <= 0 {
		o.Slow = 5 * time.Minute
	}
	if o.Fast > o.Slow {
		return fmt.Errorf("health: objective %s: fast window %v > slow window %v", o.Name, o.Fast, o.Slow)
	}
	if o.ClearFor <= 0 {
		o.ClearFor = o.Fast
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.signals[o.Signal]; !ok {
		return fmt.Errorf("health: objective %s wants unregistered signal %q", o.Name, o.Signal)
	}
	for _, st := range e.objs {
		if st.o.Name == o.Name {
			return fmt.Errorf("health: duplicate objective %q", o.Name)
		}
	}
	capacity := int(o.Slow/e.cfg.Every) + 2
	if capacity < 8 {
		capacity = 8
	}
	st := &objState{o: o, samples: make([]sample, capacity), clearSince: e.cfg.Clock.Now()}
	e.objs = append(e.objs, st)
	mBurn.SetFunc(func() float64 { return math.Float64frombits(st.fastBits.Load()) }, o.Name, "fast")
	mBurn.SetFunc(func() float64 { return math.Float64frombits(st.slowBits.Load()) }, o.Name, "slow")
	return nil
}

// AddObjectives installs every objective whose signal is registered here
// and skips the rest (a node supplies no freshness lag, so its freshness
// objective doesn't apply). Invalid objectives still error.
func (e *Engine) AddObjectives(objs ...Objective) (int, error) {
	added := 0
	for _, o := range objs {
		e.mu.Lock()
		_, known := e.signals[o.Signal]
		e.mu.Unlock()
		if !known {
			continue
		}
		if err := e.AddObjective(o); err != nil {
			return added, err
		}
		added++
	}
	return added, nil
}

// Start begins ticking on the configured clock. Safe to call once.
func (e *Engine) Start() {
	e.startOnce.Do(func() {
		go func() {
			defer close(e.done)
			tk := wfclock.NewTicker(e.cfg.Clock, e.cfg.Every)
			defer tk.Stop()
			for {
				select {
				case <-e.stop:
					return
				case <-tk.C():
					e.Tick()
				}
			}
		}()
	})
}

// Close stops the tick loop and removes this engine's contribution to the
// shared alert gauges so later engines (tests) start from a clean slate.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	firing, pending := e.firing, e.pending
	e.mu.Unlock()

	select {
	case <-e.stop:
	default:
		close(e.stop)
	}
	e.startOnce.Do(func() { close(e.done) }) // never started: release waiters
	<-e.done
	mAlertsFiring.Add(int64(-firing))
	mAlertsPending.Add(int64(-pending))
}

// Tick evaluates every signal and objective once. Start calls this on
// the interval; manual-clock tests call it directly.
func (e *Engine) Tick() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	now := e.cfg.Clock.Now()
	mEvals.Inc()

	// One evaluation per signal per tick; objectives read the cache.
	vals := make(map[string]sample, len(e.signals))
	for _, name := range e.sigOrder {
		ss := e.signals[name]
		v, ok := ss.fn()
		if !ok {
			v = 0
		}
		ss.bits.Store(math.Float64bits(v))
		ss.ok.Store(ok)
		vals[name] = sample{t: now, v: v, ok: ok}
	}

	var notify []Alert
	for _, st := range e.objs {
		sm := vals[st.o.Signal]
		sm.breach = sm.ok && st.o.breached(sm.v)
		st.push(sm)
		if sm.breach {
			st.clearSince = time.Time{}
		} else if st.clearSince.IsZero() {
			st.clearSince = now
		}

		fast := st.frac(now, st.o.Fast) / st.o.Budget
		slow := st.frac(now, st.o.Slow) / st.o.Budget
		st.fastBits.Store(math.Float64bits(fast))
		st.slowBits.Store(math.Float64bits(slow))
		if fast > st.maxBurn {
			st.maxBurn = fast
		}
		if fast > e.maxBurn {
			e.maxBurn, e.maxSLO = fast, st.o.Name
		}
		cond := fast >= st.o.BurnRate && slow >= st.o.BurnRate

		mk := func(state string) Alert {
			return Alert{
				SLO: st.o.Name, Severity: st.o.Severity, State: state,
				Signal: st.o.Signal, Value: sm.v, Threshold: st.o.Threshold,
				FastBurn: fast, SlowBurn: slow, At: now, Since: st.since,
			}
		}

		switch st.state {
		case Inactive:
			if cond {
				st.state, st.since = Pending, now
				e.pending++
				mAlertsPending.Inc()
				e.record(mk("pending"), &notify)
			}
		case Pending:
			if !cond {
				st.state = Inactive
				e.pending--
				mAlertsPending.Dec()
				e.record(mk("canceled"), &notify)
				break
			}
			if now.Sub(st.since) >= st.o.For {
				st.state, st.since = Firing, now
				e.pending--
				e.firing++
				mAlertsPending.Dec()
				mAlertsFiring.Inc()
				a := mk("firing")
				if id, err := e.autoBundleLocked(&a); err == nil && id != "" {
					a.BundleID, st.bundleID = id, id
				} else if err != nil {
					e.rec.Note("bundle", "write failed: %v", err)
				}
				e.record(a, &notify)
			}
		case Firing:
			if !st.clearSince.IsZero() && now.Sub(st.clearSince) >= st.o.ClearFor {
				e.record(mk("resolved"), &notify) // Since still carries firedAt
				st.state, st.since = Inactive, time.Time{}
				st.bundleID = ""
				e.firing--
				mAlertsFiring.Dec()
			}
		}
	}

	ready := true
	for _, st := range e.objs {
		if st.o.GateReady && st.state == Firing {
			ready = false
		}
	}
	e.readyBit.Store(ready)
	if ready {
		mReady.Set(1)
	} else {
		mReady.Set(0)
	}
	cb := e.cfg.OnAlert
	e.mu.Unlock()

	if cb != nil {
		for _, a := range notify {
			cb(a)
		}
	}
}

// record appends one transition to the bounded retention ring.
func (e *Engine) record(a Alert, notify *[]Alert) {
	e.recent = append(e.recent, a)
	if over := len(e.recent) - retainAlerts; over > 0 {
		e.recent = append(e.recent[:0], e.recent[over:]...)
	}
	mTransitions.With(a.State).Inc()
	e.rec.Note("alert", "%s %s (value=%.4g threshold=%.4g burn fast=%.2f slow=%.2f)",
		a.SLO, a.State, a.Value, a.Threshold, a.FastBurn, a.SlowBurn)
	*notify = append(*notify, a)
}

// autoBundleLocked writes a bundle file for a firing transition when a
// BundleDir is configured.
func (e *Engine) autoBundleLocked(trigger *Alert) (string, error) {
	if e.cfg.BundleDir == "" {
		return "", nil
	}
	id, _, err := e.writeBundleLocked(trigger)
	return id, err
}

// Ready reports whether no ready-gating objective is firing. Lock-free:
// safe from HTTP handlers while a tick holds the engine lock.
func (e *Engine) Ready() bool { return e.readyBit.Load() }

// FiringCount returns the number of objectives currently firing.
func (e *Engine) FiringCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firing
}

// PendingCount returns the number of objectives currently pending.
func (e *Engine) PendingCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pending
}

// Signal returns the named signal's last evaluated value.
func (e *Engine) Signal(name string) (float64, bool) {
	e.mu.Lock()
	ss, ok := e.signals[name]
	e.mu.Unlock()
	if !ok {
		return 0, false
	}
	return math.Float64frombits(ss.bits.Load()), ss.ok.Load()
}

// Active returns one Alert per objective not currently inactive.
func (e *Engine) Active() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.activeLocked()
}

func (e *Engine) activeLocked() []Alert {
	var out []Alert
	for _, st := range e.objs {
		if st.state == Inactive {
			continue
		}
		sm := st.samples[(st.pos-1+len(st.samples))%len(st.samples)]
		out = append(out, Alert{
			SLO: st.o.Name, Severity: st.o.Severity, State: st.state.String(),
			Signal: st.o.Signal, Value: sm.v, Threshold: st.o.Threshold,
			FastBurn: math.Float64frombits(st.fastBits.Load()),
			SlowBurn: math.Float64frombits(st.slowBits.Load()),
			At:       sm.t, Since: st.since, BundleID: st.bundleID,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SLO < out[j].SLO })
	return out
}

// Recent returns the retained transition history, oldest first.
func (e *Engine) Recent() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Alert(nil), e.recent...)
}

// Objectives returns the installed objectives.
func (e *Engine) Objectives() []Objective {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Objective, len(e.objs))
	for i, st := range e.objs {
		out[i] = st.o
	}
	return out
}

// MaxBurn returns the highest fast-window burn rate seen by any
// objective since the engine started, and which objective saw it.
func (e *Engine) MaxBurn() (string, float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.maxSLO, e.maxBurn
}

// Bundles returns the IDs of bundles written so far, oldest first.
func (e *Engine) Bundles() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.bundles...)
}
