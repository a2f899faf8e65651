package soak

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/health"
	"repro/internal/synth"
)

// TestSoakSLOLifecycle is the end-to-end alert lifecycle property test:
// a slow-consumer fault window stalls the forwarder long enough that the
// event-time freshness objective walks pending → firing — capturing a
// diagnostics bundle with the spans and metrics of the breach — and then,
// once the stall lifts and the queue drains, resolves. Readiness (the
// same bit /readyz serves) must flip unready while firing and back to
// ready at the end.
//
// Freshness reads the run's own archive, so the test means the same the
// second time it runs in a process (-count=2).
func TestSoakSLOLifecycle(t *testing.T) {
	sc := &synth.Scenario{
		Name: "slo-lifecycle",
		Seed: 9393,
		Tenants: []synth.Tenant{
			{Name: "peg", Engine: "pegasus", Weight: 2, Workflow: synth.Shape{Jobs: 12, Width: 4, TasksPerJob: 2}},
			{Name: "tri", Engine: "triana", Weight: 1},
		},
		Arrival: synth.Schedule{Phases: []synth.Phase{{Mode: "constant", Seconds: 2, Rate: 2500}}},
		// ~20% of the stream stalled at 2ms per message: a ~2s wall-clock
		// ingest stall, far past the objective's For but comfortably inside
		// the post-drain settle.
		Faults: synth.Faults{
			SlowConsumer: &synth.SlowConsumer{StartFraction: 0.3, EndFraction: 0.5, DelayMS: 2},
		},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}

	bundleDir := t.TempDir()
	res, err := Run(sc, 0, Options{
		Shards:  4,
		Speedup: 0,
		SLO:     &SLOOptions{BundleDir: bundleDir},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(res)
	requirePass(t, rep)

	slo := res.SLO
	if slo == nil {
		t.Fatal("Options.SLO set but Result.SLO is nil")
	}
	if slo.Fired < 1 {
		t.Fatalf("slow-consumer stall fired no alert: %+v", slo)
	}
	if slo.Resolved != slo.Fired {
		t.Fatalf("fired %d but resolved %d", slo.Fired, slo.Resolved)
	}
	if len(slo.StillFiring) != 0 {
		t.Fatalf("alerts still firing after settle: %v", slo.StillFiring)
	}
	if !slo.WentUnready {
		t.Fatal("ready-gating alert fired but readiness never dropped")
	}
	if !slo.ReadyAtEnd {
		t.Fatal("readiness did not recover after the alert resolved")
	}
	if slo.MaxBurnSLO != "ingest-freshness" || slo.MaxBurn < 2 {
		t.Fatalf("max burn = %.2f on %q, want >= 2 on ingest-freshness", slo.MaxBurn, slo.MaxBurnSLO)
	}

	// The transition history carries the full lifecycle in order, and the
	// firing transition is stamped with its bundle.
	var fired *health.Alert
	sawResolved := false
	for i := range slo.Transitions {
		a := &slo.Transitions[i]
		if a.SLO != "ingest-freshness" {
			continue
		}
		switch a.State {
		case "firing":
			if fired == nil {
				fired = a
			}
		case "resolved":
			if fired == nil {
				t.Fatal("resolved before firing in the transition history")
			}
			sawResolved = true
		}
	}
	if fired == nil || !sawResolved {
		t.Fatalf("lifecycle incomplete in transitions: %+v", slo.Transitions)
	}
	if fired.BundleID == "" {
		t.Fatal("firing transition carries no bundle id")
	}

	// The bundle on disk is the black box of the breach: the triggering
	// alert, metrics showing the alert gauge raised, and recent spans from
	// the pipeline that was ingesting when it fired.
	f, err := os.Open(filepath.Join(bundleDir, "bundle-"+fired.BundleID+".tar.gz"))
	if err != nil {
		t.Fatalf("bundle file missing: %v", err)
	}
	defer f.Close()
	bi, err := health.ReadBundle(f)
	if err != nil {
		t.Fatalf("bundle unreadable: %v", err)
	}
	if bi.Meta.Trigger == nil || bi.Meta.Trigger.SLO != "ingest-freshness" || bi.Meta.Trigger.State != "firing" {
		t.Fatalf("bundle trigger = %+v", bi.Meta.Trigger)
	}
	if v, ok := bi.MetricValue("stampede_alerts_firing"); !ok || v == "0" {
		t.Fatalf("bundle metrics show alerts firing = %q (ok=%v), want >= 1", v, ok)
	}
	if len(bi.Spans) == 0 {
		t.Fatal("bundle captured no spans from the ingesting pipeline")
	}
	stages := map[string]bool{}
	for _, sp := range bi.Spans {
		stages[sp.Stage] = true
	}
	if !stages["apply"] && !stages["commit"] {
		t.Fatalf("bundle spans cover no apply/commit activity: %v", stages)
	}

	// The report renders the slo section and its checks passed.
	if rep.SLO == nil || rep.SLO.Fired != slo.Fired {
		t.Fatalf("report slo section = %+v", rep.SLO)
	}
	var b bytes.Buffer
	rep.Render(&b)
	if !bytes.Contains(b.Bytes(), []byte("slo:")) {
		t.Fatalf("rendered report missing slo line:\n%s", b.String())
	}
}
