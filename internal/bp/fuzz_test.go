package bp_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bp"
	"repro/internal/synth"
)

// FuzzParse checks that Parse never panics on arbitrary lines and that
// every line Parse accepts reaches a canonical fixed point: the parsed
// event's Format output re-parses, formats identically, and preserves the
// type and every attribute. This is the property the loader and broker
// rely on when events cross process boundaries as formatted lines.
func FuzzParse(f *testing.F) {
	// Seed with realistic lines from the deterministic trace synthesizer
	// so the fuzzer starts from the full event-type vocabulary.
	tr := synth.Generate(synth.Config{Seed: 7, Jobs: 5, Hosts: 2, FailureRate: 0.3, MaxRetries: 2})
	for i, ev := range tr.Events {
		if i >= 80 {
			break
		}
		f.Add(ev.Format())
	}
	// Hand-picked edge cases: epoch timestamps, quoting, escapes, empty
	// values, duplicate keys, whitespace runs.
	for _, s := range []string{
		`ts=2012-03-13T12:35:38.000000Z event=stampede.xwf.start xwf.id=ea17e8ac restart_count=0`,
		`ts=1331642138.25 event=x`,
		`ts=-1.5 event=x a=""`,
		`ts=0 event=x a="quoted \"value\"" b="line\nbreak" c="back\\slash"`,
		"ts=1 event=x \t a=1 \t\t b=2  a=3",
		`ts=1 event="spaced type" k==v`,
		`ts="2012-03-13T12:35:38.000000Z" event=x`,
		`ts=1e300 event=x`,
		`ts=NaN event=x`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		ev, err := bp.Parse(line)
		// ParseBytes must agree with Parse on every input: same event or
		// same rejection. The zero-copy parser shares the tokenizer, but
		// this is the property that keeps it honest if they ever split.
		bev, berr := bp.ParseBytes([]byte(line))
		if (err == nil) != (berr == nil) {
			t.Fatalf("Parse/ParseBytes disagree on %q: %v vs %v", line, err, berr)
		}
		if berr == nil {
			if bev.Type != ev.Type || !bev.TS.Equal(ev.TS) || len(bev.Attrs) != len(ev.Attrs) {
				t.Fatalf("Parse/ParseBytes events differ on %q:\n  %v\n  %v", line, ev, bev)
			}
			for i := range ev.Attrs {
				if ev.Attrs[i] != bev.Attrs[i] {
					t.Fatalf("attr %d differs on %q: %v vs %v", i, line, ev.Attrs[i], bev.Attrs[i])
				}
			}
			bp.ReleaseEvent(bev)
		}
		if err != nil {
			return // rejected input is fine; panics are not
		}
		canon := ev.Format()
		ev2, err := bp.Parse(canon)
		if err != nil {
			t.Fatalf("canonical line of %q failed to re-parse: %q: %v", line, canon, err)
		}
		if again := ev2.Format(); again != canon {
			t.Fatalf("canonical form unstable:\n first: %q\nsecond: %q", canon, again)
		}
		if ev2.Type != ev.Type {
			t.Fatalf("type changed across round-trip: %q -> %q", ev.Type, ev2.Type)
		}
		if len(ev2.Attrs) != len(ev.Attrs) {
			t.Fatalf("attr count changed: %v -> %v", ev.Attrs, ev2.Attrs)
		}
		for i := range ev.Attrs {
			k, v := ev.Attrs[i].Key, ev.Attrs[i].Val
			if got, ok := ev2.Attrs.Lookup(k); !ok || got != v {
				t.Fatalf("attr %q changed across round-trip: %q -> %q", k, v, got)
			}
		}
		// The canonical timestamp has microsecond precision; once at that
		// precision it must be exact.
		ev3, err := bp.Parse(ev2.Format())
		if err != nil {
			t.Fatal(err)
		}
		if !ev3.TS.Equal(ev2.TS) {
			t.Fatalf("timestamp drifts after canonicalisation: %v -> %v", ev2.TS, ev3.TS)
		}
	})
}

// FuzzAppendFormat drives the encoder from the event side: an arbitrary
// type, two attributes whose values may hold quotes, backslashes, CR, LF
// and '=', and an arbitrary instant (Unix seconds plus nanoseconds, so
// years outside 0001–9999 reach the fallback too). AppendFormat must
// extend any prefix by exactly Format's line, its timestamp must be
// time.Time.AppendFormat's, and ParseBytes must read the line back.
func FuzzAppendFormat(f *testing.F) {
	f.Add("stampede.xwf.start", "xwf.id", "ea17e8ac", "dax.label", `a "quoted" = label`, int64(0), int64(1331642138123456789))
	f.Add("spaced type", "k", "line\nbreak\r", "j", `back\slash`, int64(-62135596800), int64(0))
	f.Add("x", "a", "", "b", "=", int64(253402300799), int64(999999999))
	f.Add("x", "a", "1", "b", "2", int64(253402300800), int64(0))
	f.Add("x", "a", "1", "b", "2", int64(-62135596801), int64(-1))
	f.Fuzz(func(t *testing.T, typ, k1, v1, k2, v2 string, sec, nsec int64) {
		if typ == "" {
			return // an empty type is not an event Parse accepts
		}
		ts := time.Unix(sec, nsec)
		ev := &bp.Event{TS: ts, Type: typ}
		for _, kv := range [][2]string{{k1, v1}, {k2, v2}} {
			if validKey(kv[0]) {
				ev.Set(kv[0], kv[1])
			}
		}
		line := ev.Format()
		prefix := []byte("prefix ")
		if got := ev.AppendFormat(prefix); string(got) != string(prefix)+line {
			t.Fatalf("AppendFormat(prefix) = %q, want prefix + %q", got, line)
		}
		stamp := "ts=" + string(ts.UTC().AppendFormat(nil, bp.TimeFormat)) + " event="
		if !strings.HasPrefix(line, stamp) {
			t.Fatalf("line %q does not start %q, time.Time.AppendFormat's timestamp", line, stamp)
		}
		if year := ts.UTC().Year(); year < 1 || year > 9999 {
			return // no BP timestamp layout reads a year outside 0001–9999 back
		}
		back, err := bp.ParseBytes([]byte(line))
		if err != nil {
			t.Fatalf("ParseBytes(%q): %v", line, err)
		}
		defer bp.ReleaseEvent(back)
		if back.Type != ev.Type || !back.TS.Equal(ts.Truncate(time.Microsecond)) || len(back.Attrs) != len(ev.Attrs) {
			t.Fatalf("round trip of %q: got %v at %v, want %v at %v", line, back, back.TS, ev, ts)
		}
		for i := range ev.Attrs {
			if back.Attrs[i] != ev.Attrs[i] {
				t.Fatalf("round trip of %q: attr %d = %v, want %v", line, i, back.Attrs[i], ev.Attrs[i])
			}
		}
	})
}

// validKey reports whether k can be written as a BP key: keys are never
// quoted, so they cannot hold a separator, a quote or a line break, and
// "ts" and "event" are the dedicated fields.
func validKey(k string) bool {
	return k != "" && k != bp.KeyTS && k != bp.KeyEvent && !strings.ContainsAny(k, " \t=\"\n\r")
}
