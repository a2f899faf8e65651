package views_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/bp"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/views"
	"repro/internal/wfclock"
)

// invEnd builds one invocation-end event with a known duration for the
// detector to judge.
func invEnd(uuid string, ts time.Time, inv int64, dur float64) *bp.Event {
	return bp.New(schema.InvEnd, ts).
		Set(schema.AttrXwfID, uuid).
		Set(schema.AttrJobID, "compute.exec0").
		SetInt(schema.AttrJobInstID, 1).
		SetInt(schema.AttrInvID, inv).
		SetFloat(schema.AttrDur, dur).
		Set(schema.AttrTransform, "compute.exec0")
}

// TestAnomalyDetectorDeterministic drives the in-stream 3-sigma detector
// with a hand-computed latency sequence and asserts the exact alerts the
// views layer emits — values, z-scores, publication, and reset.
//
// Warm-up durations {10, 10.1, 9.9, 10.05, 9.95}: mean exactly 10.0,
// sample variance 0.025/4 = 0.00625, std 0.0790569...; an observation of
// 20 then scores z = 10/0.0790569 = 126.49..., far past the 3-sigma
// threshold. Because anomalies are NOT folded into the running
// statistics, a following normal value must stay quiet and a second 20
// must alert again with the same expectation.
func TestAnomalyDetectorDeterministic(t *testing.T) {
	const uuid = "anomaly-wf-1"
	epoch := time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC)
	clk := wfclock.NewManual(epoch)
	v := views.New(views.Options{Clock: clk, FlushEvery: time.Hour}) // manual flushes only
	defer v.Close()

	sub := v.Subscribe(uuid)
	defer sub.Close()
	broadcast := v.Subscribe("")
	defer broadcast.Close()

	alertsBefore, _ := telemetry.Default().SumValue("stampede_views_anomaly_alerts_total")

	warmup := []float64{10, 10.1, 9.9, 10.05, 9.95}
	inv := int64(0)
	for _, d := range warmup {
		v.ObserveBatch([]*bp.Event{invEnd(uuid, epoch, inv, d)})
		inv++
	}
	v.FlushNow()
	drainAlerts(t, sub, 0) // warm-up must emit no alerts

	// The outlier: exactly one alert, with the hand-computed statistics.
	v.ObserveBatch([]*bp.Event{invEnd(uuid, epoch, inv, 20)})
	inv++
	v.FlushNow()
	alerts := drainAlerts(t, sub, 1)
	a := alerts[0]
	if a.UUID != uuid || a.Transformation != "compute.exec0" {
		t.Fatalf("alert identity = %+v", a)
	}
	if a.Value != 20 {
		t.Fatalf("alert value = %v, want 20", a.Value)
	}
	if math.Abs(a.Expected-10) > 1e-9 {
		t.Fatalf("alert expected = %v, want 10", a.Expected)
	}
	wantZ := 10 / math.Sqrt(0.00625)
	if math.Abs(a.Score-wantZ) > 1e-6 {
		t.Fatalf("alert score = %v, want %v", a.Score, wantZ)
	}

	// The broadcast stream carries the same alert pre-framed as SSE.
	frame := drainBatch(t, broadcast)
	if !strings.Contains(frame, "event: alert") || !strings.Contains(frame, `"score"`) {
		t.Fatalf("broadcast frame missing alert: %q", frame)
	}

	// Reset: the queued alert was consumed by the flush; a second flush
	// with no new observations must publish nothing.
	v.FlushNow()
	drainAlerts(t, sub, 0)

	// The anomaly was not folded into the baseline: normal stays quiet,
	// a repeat outlier alerts again against the unchanged mean.
	v.ObserveBatch([]*bp.Event{invEnd(uuid, epoch, inv, 10)})
	inv++
	v.FlushNow()
	drainAlerts(t, sub, 0)

	v.ObserveBatch([]*bp.Event{invEnd(uuid, epoch, inv, 20)})
	v.FlushNow()
	again := drainAlerts(t, sub, 1)
	if math.Abs(again[0].Expected-10) > 1e-6 {
		t.Fatalf("baseline drifted after anomaly: expected = %v", again[0].Expected)
	}

	// The health layer's counter saw exactly the two alerts.
	alertsAfter, ok := telemetry.Default().SumValue("stampede_views_anomaly_alerts_total")
	if !ok || alertsAfter-alertsBefore != 2 {
		t.Fatalf("anomaly counter delta = %v, want 2", alertsAfter-alertsBefore)
	}
}

// drainAlerts collects the alert frames written for a per-workflow
// subscriber since the last call and asserts their count. FlushNow has
// returned before it is called, so everything is in the subscriber's log.
func drainAlerts(t *testing.T, sub *views.Sub, want int) []views.Alert {
	t.Helper()
	var out []views.Alert
	for _, frame := range strings.Split(drainBatch(t, sub), "\n\n") {
		body, ok := strings.CutPrefix(frame, "event: alert\ndata: ")
		if !ok {
			continue // a delta for the same workflow
		}
		var a views.Alert
		if err := json.Unmarshal([]byte(body), &a); err != nil {
			t.Fatalf("bad alert payload %q: %v", body, err)
		}
		out = append(out, a)
	}
	if len(out) != want {
		t.Fatalf("got %d alerts, want %d: %+v", len(out), want, out)
	}
	return out
}

// drainBatch returns the frames written for a subscriber since the last
// call.
func drainBatch(t *testing.T, sub *views.Sub) string {
	t.Helper()
	var b strings.Builder
	if _, err := sub.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
