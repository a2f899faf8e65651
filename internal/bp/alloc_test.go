//go:build !race

package bp_test

import (
	"io"
	"testing"

	"repro/internal/bp"
)

// The race detector instruments allocations and sync.Pool behaviour, so
// the enforced ceilings only run in normal builds; the race CI step still
// compiles this file's package without them.

// TestParseBytesAllocCeiling pins the steady-state allocation cost of the
// zero-copy parse path: one backing-string copy of the line, nothing
// else. If a change re-introduces per-pair or per-event allocations the
// ceiling fails before the benchmark numbers ever regress.
func TestParseBytesAllocCeiling(t *testing.T) {
	line := []byte(`ts=2012-03-13T12:35:38.123456Z event=stampede.job_inst.main.end level=Info ` +
		`xwf.id=ea17e8ac-02ac-4909-b5e3-16e367392556 job.id=merge_j3 job_inst.id=7 ` +
		`js.id=5 sched.id=39.0 status=0 exitcode=0 multiplier_factor=1`)
	// Warm the pool and the intern table: first sight of each key inserts
	// a canonical copy, steady state only looks it up.
	for i := 0; i < 64; i++ {
		ev, err := bp.ParseBytes(line)
		if err != nil {
			t.Fatal(err)
		}
		bp.ReleaseEvent(ev)
	}
	avg := testing.AllocsPerRun(1000, func() {
		ev, err := bp.ParseBytes(line)
		if err != nil {
			t.Fatal(err)
		}
		bp.ReleaseEvent(ev)
	})
	// 1 = the string(line) copy every value slices into. Allow one slop
	// allocation for runtime noise, no more.
	if avg > 2 {
		t.Errorf("ParseBytes allocates %.1f/op in steady state, want <= 2", avg)
	}
}

// TestFormatAllocCeiling keeps the encode side honest too: Format over a
// sorted Attrs slice encodes into a stack buffer, so the returned string
// is its only allocation.
func TestFormatAllocCeiling(t *testing.T) {
	ev := formatProbe(t)
	avg := testing.AllocsPerRun(1000, func() {
		_ = ev.Format()
	})
	if avg > 1 {
		t.Errorf("Format allocates %.1f/op, want <= 1 (no per-call key sort, no builder)", avg)
	}
}

// TestAppendFormatAllocCeiling pins the one encoder every emitter uses:
// into a dst with room for the line it allocates nothing.
func TestAppendFormatAllocCeiling(t *testing.T) {
	ev := formatProbe(t)
	dst := make([]byte, 0, 512)
	avg := testing.AllocsPerRun(1000, func() {
		dst = ev.AppendFormat(dst[:0])
	})
	if avg != 0 {
		t.Errorf("AppendFormat allocates %.1f/op into a pre-sized dst, want 0", avg)
	}
}

// TestWriterAllocCeiling: a log writer encodes into scratch it keeps, so
// a steady stream of events costs no allocation.
func TestWriterAllocCeiling(t *testing.T) {
	ev := formatProbe(t)
	w := bp.NewWriter(io.Discard)
	avg := testing.AllocsPerRun(1000, func() {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("Writer.Write allocates %.1f/event, want 0", avg)
	}
}

func formatProbe(t *testing.T) *bp.Event {
	t.Helper()
	ev, err := bp.Parse(`ts=2012-03-13T12:35:38.123456Z event=stampede.xwf.start level=Info ` +
		`xwf.id=ea17e8ac-02ac-4909-b5e3-16e367392556 restart_count=0 dax.label="a label"`)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}
