package experiments

import (
	"strings"
	"testing"
)

func TestTrianaLoadScalingNoPenalty(t *testing.T) {
	rows, err := TrianaLoadScaling([]int{10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Events <= r.Tasks {
			t.Errorf("events %d for %d tasks", r.Events, r.Tasks)
		}
		// The load rates themselves (and the triana/pegasus ratio the
		// table reports) are wall-clock timings of two ~100 µs loads:
		// they are printed, not asserted.
		if r.Rate <= 0 || r.SynthRate <= 0 {
			t.Errorf("rates: %+v", r)
		}
	}
	if rows[1].Events <= rows[0].Events {
		t.Error("event counts not growing with size")
	}
	out := RenderTrianaLoad(rows)
	if !strings.Contains(out, "ratio") {
		t.Error("render incomplete")
	}
}

func TestContinuousDARTStopsOnCondition(t *testing.T) {
	r, err := RunContinuousDART(50, 220)
	if err != nil {
		t.Fatal(err)
	}
	if !r.StoppedEarly {
		t.Errorf("stream ran to the cap (%d chunks); local condition never fired", r.ChunksEmitted)
	}
	if r.ChunksEmitted < 4 {
		t.Errorf("stopped after only %d chunks; condition needs >=4", r.ChunksEmitted)
	}
	// The detected pitch must be near the synthesized 220 Hz.
	if r.DetectedPitch < 210 || r.DetectedPitch > 230 {
		t.Errorf("pitch = %.1f, want ~220", r.DetectedPitch)
	}
	// Every job has multiple invocations under a single job instance —
	// the §V-B continuous-mode mapping.
	for _, job := range []string{"audio-source", "shs-analyzer", "stability-check"} {
		if r.Invocations[job] < 2 {
			t.Errorf("%s: %d invocations, want streaming", job, r.Invocations[job])
		}
		if r.Invocations[job] != r.ChunksEmitted {
			t.Errorf("%s: %d invocations for %d chunks", job, r.Invocations[job], r.ChunksEmitted)
		}
	}
	out := RenderContinuous(r)
	if !strings.Contains(out, "stopped early") {
		t.Error("render incomplete")
	}
}

func TestContinuousDARTRespectsCap(t *testing.T) {
	// An unstable stream (no consistent pitch) must stop at the cap.
	r, err := RunContinuousDART(8, 0) // F0=0 synthesizes silence-ish noise
	if err != nil {
		t.Fatal(err)
	}
	if r.ChunksEmitted > 8 {
		t.Errorf("cap exceeded: %d", r.ChunksEmitted)
	}
}
