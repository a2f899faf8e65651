package health

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wfclock"
)

var testEpoch = time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC)

// tickUntil advances the manual clock one interval at a time, ticking the
// engine, until pred holds or max ticks elapse.
func tickUntil(t *testing.T, clk *wfclock.Manual, e *Engine, max int, what string, pred func() bool) int {
	t.Helper()
	for i := 1; i <= max; i++ {
		clk.Advance(e.cfg.Every)
		e.Tick()
		if pred() {
			return i
		}
	}
	t.Fatalf("condition %q not reached in %d ticks", what, max)
	return 0
}

func states(alerts []Alert) []string {
	out := make([]string, len(alerts))
	for i, a := range alerts {
		out[i] = a.State
	}
	return out
}

// TestAlertLifecycle drives one objective through the full state machine
// on a manual clock: clean → pending → firing (ready gates, bundle
// written) → resolved once the signal stays clear for ClearFor.
func TestAlertLifecycle(t *testing.T) {
	clk := wfclock.NewManual(testEpoch)
	dir := t.TempDir()
	e := New(Config{Clock: clk, Every: time.Second, BundleDir: dir})
	defer e.Close()

	val := 0.0
	e.Register("sig", func() (float64, bool) { return val, true })
	err := e.AddObjective(Objective{
		Name: "test-slo", Signal: "sig", Op: Above, Threshold: 1,
		Budget: 0.5, BurnRate: 1, Fast: 3 * time.Second, Slow: 6 * time.Second,
		For: 2 * time.Second, ClearFor: 2 * time.Second, GateReady: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		clk.Advance(time.Second)
		e.Tick()
	}
	if !e.Ready() || e.FiringCount() != 0 || len(e.Recent()) != 0 {
		t.Fatalf("clean engine not quiet: ready=%v firing=%d recent=%v", e.Ready(), e.FiringCount(), e.Recent())
	}

	val = 5
	tickUntil(t, clk, e, 20, "pending", func() bool { return e.PendingCount() == 1 })
	if !e.Ready() {
		t.Fatal("pending alone must not gate readiness")
	}
	tickUntil(t, clk, e, 20, "firing", func() bool { return e.FiringCount() == 1 })
	if e.Ready() {
		t.Fatal("ready while a GateReady objective fires")
	}
	if got := states(e.Recent()); len(got) != 2 || got[0] != "pending" || got[1] != "firing" {
		t.Fatalf("transitions = %v, want [pending firing]", got)
	}

	// Firing wrote a bundle and stamped its ID on the transition.
	bundles := e.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("bundles = %v, want one", bundles)
	}
	fired := e.Recent()[1]
	if fired.BundleID != bundles[0] {
		t.Fatalf("firing transition bundle id %q != %q", fired.BundleID, bundles[0])
	}
	if _, err := os.Stat(filepath.Join(dir, "bundle-"+bundles[0]+".tar.gz")); err != nil {
		t.Fatalf("bundle file missing: %v", err)
	}
	if active := e.Active(); len(active) != 1 || active[0].State != "firing" || active[0].BundleID != bundles[0] {
		t.Fatalf("active = %+v", active)
	}

	// MaxBurn saw the breach.
	if slo, burn := e.MaxBurn(); slo != "test-slo" || burn < 1 {
		t.Fatalf("max burn = %s %.2f", slo, burn)
	}

	val = 0
	tickUntil(t, clk, e, 20, "resolved", func() bool { return e.FiringCount() == 0 })
	if !e.Ready() {
		t.Fatal("not ready after resolution")
	}
	if got := states(e.Recent()); len(got) != 3 || got[2] != "resolved" {
		t.Fatalf("transitions = %v, want [... resolved]", got)
	}
	if res := e.Recent()[2]; res.Since.IsZero() {
		t.Fatal("resolved transition lost its firing onset time")
	}
	if len(e.Active()) != 0 {
		t.Fatalf("active after resolve: %v", e.Active())
	}
}

// TestPendingCancel: a breach shorter than the For-duration must cancel,
// never fire — the damping the state machine exists for.
func TestPendingCancel(t *testing.T) {
	clk := wfclock.NewManual(testEpoch)
	e := New(Config{Clock: clk, Every: time.Second})
	defer e.Close()

	val := 0.0
	e.Register("sig", func() (float64, bool) { return val, true })
	if err := e.AddObjective(Objective{
		Name: "flap", Signal: "sig", Threshold: 1,
		Budget: 1, BurnRate: 1, Fast: 2 * time.Second, Slow: 4 * time.Second,
		For: 10 * time.Second, ClearFor: 2 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}

	val = 5
	tickUntil(t, clk, e, 20, "pending", func() bool { return e.PendingCount() == 1 })
	val = 0
	tickUntil(t, clk, e, 20, "canceled", func() bool { return e.PendingCount() == 0 })
	if e.FiringCount() != 0 {
		t.Fatal("canceled pending fired anyway")
	}
	got := states(e.Recent())
	if len(got) != 2 || got[0] != "pending" || got[1] != "canceled" {
		t.Fatalf("transitions = %v, want [pending canceled]", got)
	}
}

// TestMultiWindow: a short spike saturates the fast window but not the
// slow one, so the alert must stay quiet — the false-positive protection
// multi-window burn rates buy.
func TestMultiWindowSuppressesSpike(t *testing.T) {
	clk := wfclock.NewManual(testEpoch)
	e := New(Config{Clock: clk, Every: time.Second})
	defer e.Close()

	val := 0.0
	e.Register("sig", func() (float64, bool) { return val, true })
	if err := e.AddObjective(Objective{
		Name: "spiky", Signal: "sig", Threshold: 1,
		Budget: 0.5, BurnRate: 1, Fast: 2 * time.Second, Slow: 30 * time.Second,
		For: 0, ClearFor: 2 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}

	// Long clean history, then a 3-tick spike: fast burn hits 2x but the
	// slow window stays under budget.
	for i := 0; i < 30; i++ {
		clk.Advance(time.Second)
		e.Tick()
	}
	val = 5
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		e.Tick()
	}
	val = 0
	for i := 0; i < 5; i++ {
		clk.Advance(time.Second)
		e.Tick()
	}
	if got := e.Recent(); len(got) != 0 {
		t.Fatalf("spike produced transitions: %v", states(got))
	}
}

func TestAddObjectiveValidation(t *testing.T) {
	e := New(Config{Clock: wfclock.NewManual(testEpoch)})
	defer e.Close()
	e.Register("sig", func() (float64, bool) { return 0, true })

	if err := e.AddObjective(Objective{Name: "x", Signal: "nope"}); err == nil {
		t.Fatal("unknown signal accepted")
	}
	if err := e.AddObjective(Objective{Name: "", Signal: "sig"}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := e.AddObjective(Objective{Name: "x", Signal: "sig", Fast: time.Hour, Slow: time.Minute}); err == nil {
		t.Fatal("fast > slow accepted")
	}
	if err := e.AddObjective(Objective{Name: "x", Signal: "sig"}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddObjective(Objective{Name: "x", Signal: "sig"}); err == nil {
		t.Fatal("duplicate name accepted")
	}

	n, err := e.AddObjectives(Objective{Name: "y", Signal: "sig"}, Objective{Name: "z", Signal: "absent"})
	if err != nil || n != 1 {
		t.Fatalf("AddObjectives = %d, %v; want 1, nil", n, err)
	}
}

func TestCounterRateSignal(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("reqs_total", "")
	clk := wfclock.NewManual(testEpoch)
	sig := CounterRateSignal(clk, reg, "reqs_total")

	if _, ok := CounterRateSignal(clk, reg, "absent_total")(); ok {
		t.Fatal("absent family reported ok")
	}
	c.Add(100)
	if v, ok := sig(); !ok || v != 0 {
		t.Fatalf("first call = %v, %v; want baseline 0", v, ok)
	}
	clk.Advance(10 * time.Second)
	c.Add(50)
	if v, ok := sig(); !ok || math.Abs(v-5) > 1e-9 {
		t.Fatalf("rate = %v, want 5/s", v)
	}
}

func TestHistQuantileSignal(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat_seconds", "", nil)
	sig := HistQuantileSignal(reg, "lat_seconds", 0.99)

	h.Observe(0.008)
	if _, ok := sig(); ok {
		t.Fatal("first call must be baseline, not data")
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.008) // bucket (0.005, 0.01]
	}
	v, ok := sig()
	if !ok {
		t.Fatal("no value after 100 observations")
	}
	// All new observations in one bucket: p99 interpolates inside it.
	if v < 0.005 || v > 0.01 {
		t.Fatalf("p99 = %v, want within (0.005, 0.01]", v)
	}
	if _, ok := sig(); ok {
		t.Fatal("idle window reported data")
	}
	// A later, slower window dominates its own delta even though the
	// all-time histogram is still mostly-fast.
	for i := 0; i < 10; i++ {
		h.Observe(4.0)
	}
	v, ok = sig()
	if !ok || v < 2.5 || v > 5 {
		t.Fatalf("windowed p99 = %v, want within (2.5, 5]", v)
	}
}

func TestQuantileFromBuckets(t *testing.T) {
	upper := []float64{1, 2, 4}
	// 10 in (0,1], 10 in (1,2], 5 in +Inf.
	counts := []uint64{10, 10, 0, 5}
	if v := quantileFromBuckets(upper, counts, 0.5); v < 1 || v > 2 {
		t.Fatalf("p50 = %v", v)
	}
	if v := quantileFromBuckets(upper, counts, 0.99); v != 4 {
		t.Fatalf("p99 with +Inf tail = %v, want last finite bound 4", v)
	}
	if v := quantileFromBuckets(nil, nil, 0.5); v != 0 {
		t.Fatalf("empty = %v", v)
	}
}

func TestWatermarkLagSignal(t *testing.T) {
	pub, app := testEpoch.Add(10*time.Second), testEpoch
	haveApplied := false
	sig := WatermarkLagSignal(
		func() (time.Time, bool) { return pub, true },
		func() (time.Time, bool) { return app, haveApplied },
	)
	if _, ok := sig(); ok {
		t.Fatal("lag reported before any event applied")
	}
	haveApplied = true
	if v, ok := sig(); !ok || v != 10 {
		t.Fatalf("lag = %v, want 10s", v)
	}
	app = pub.Add(time.Second) // applied ahead (clock skew): clamp to 0
	if v, _ := sig(); v != 0 {
		t.Fatalf("negative lag not clamped: %v", v)
	}
}

// TestSignalAbsenceCountsClean: ok=false samples must not breach, and a
// firing alert must resolve when its signal disappears for ClearFor.
func TestSignalAbsenceCountsClean(t *testing.T) {
	clk := wfclock.NewManual(testEpoch)
	e := New(Config{Clock: clk, Every: time.Second})
	defer e.Close()

	val, have := 5.0, true
	e.Register("sig", func() (float64, bool) { return val, have })
	if err := e.AddObjective(Objective{
		Name: "gone", Signal: "sig", Threshold: 1,
		Budget: 0.5, BurnRate: 1, Fast: 2 * time.Second, Slow: 4 * time.Second,
		For: time.Second, ClearFor: 2 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	tickUntil(t, clk, e, 20, "firing", func() bool { return e.FiringCount() == 1 })
	have = false
	tickUntil(t, clk, e, 20, "resolved", func() bool { return e.FiringCount() == 0 })
}

func TestRegisterStandardAndDefaults(t *testing.T) {
	clk := wfclock.NewManual(testEpoch)
	e := New(Config{Clock: clk, Every: time.Second})
	defer e.Close()
	e.RegisterStandard(Sources{})

	for _, sig := range []string{SigApplyP99, SigCommitP99, SigMQDropRate, SigWALFsyncP99, SigViewsFlushP99, SigSSEResyncRate} {
		if _, ok := e.signals[sig]; !ok {
			t.Fatalf("standard signal %s missing", sig)
		}
	}
	// No store, broker or freshness source: those objectives are skipped,
	// the registry-backed ones install.
	n, err := e.AddObjectives(DefaultObjectives()...)
	if err != nil {
		t.Fatal(err)
	}
	if n < 5 {
		t.Fatalf("only %d default objectives installed", n)
	}
	clk.Advance(time.Second)
	e.Tick() // must not panic with partial sources
}
