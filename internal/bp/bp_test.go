package bp

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var ts0 = time.Date(2012, 3, 13, 12, 35, 38, 0, time.UTC)

func TestFormatPaperExample(t *testing.T) {
	e := New("stampede.xwf.start", ts0).
		Set("level", "Info").
		Set("xwf.id", "ea17e8ac-02ac-4909-b5e3-16e367392556").
		SetInt("restart_count", 0)
	got := e.Format()
	want := "ts=2012-03-13T12:35:38.000000Z event=stampede.xwf.start " +
		"level=Info restart_count=0 xwf.id=ea17e8ac-02ac-4909-b5e3-16e367392556"
	if got != want {
		t.Fatalf("Format:\n got  %q\n want %q", got, want)
	}
}

func TestParsePaperExample(t *testing.T) {
	line := "ts=2012-03-13T12:35:38.000000Z event=stampede.xwf.start " +
		"level=Info xwf.id=ea17e8ac-02ac-4909-b5e3-16e367392556 restart_count=0"
	e, err := Parse(line)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type != "stampede.xwf.start" {
		t.Errorf("Type = %q", e.Type)
	}
	if !e.TS.Equal(ts0) {
		t.Errorf("TS = %v, want %v", e.TS, ts0)
	}
	if got := e.Get("xwf.id"); got != "ea17e8ac-02ac-4909-b5e3-16e367392556" {
		t.Errorf("xwf.id = %q", got)
	}
	if n, ok := e.Int("restart_count"); !ok || n != 0 {
		t.Errorf("restart_count = %d, %v", n, ok)
	}
}

func TestRoundTripQuoting(t *testing.T) {
	cases := []string{
		"plain",
		"has space",
		`has "quotes"`,
		"has=equals",
		"tab\there",
		"newline\nhere",
		"carriage\rreturn",
		`back\slash`,
		"",
		"trailing space ",
		` leading`,
		`mix "of= every\thing` + "\n",
	}
	for _, v := range cases {
		e := New("test.event", ts0).Set("k", v)
		back, err := Parse(e.Format())
		if err != nil {
			t.Fatalf("Parse(%q): %v", e.Format(), err)
		}
		if got := back.Get("k"); got != v {
			t.Errorf("round trip %q -> %q", v, got)
		}
	}
}

func TestQuickRoundTripArbitraryValues(t *testing.T) {
	f := func(key string, val string) bool {
		// Keys must be non-empty and contain no separators; sanitise as the
		// schema layer would.
		key = strings.Map(func(r rune) rune {
			if r == '=' || r == ' ' || r == '\t' || r == '\n' || r == '\r' || r == '"' {
				return '_'
			}
			return r
		}, key)
		if key == "" || key == KeyTS || key == KeyEvent {
			key = "k"
		}
		// Values: the format is byte-oriented; normalise to valid UTF-8 as
		// Go strings from quick already are.
		e := New("t.e", ts0).Set(key, val)
		back, err := Parse(e.Format())
		if err != nil {
			return false
		}
		return back.Get(key) == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParseEpochSeconds(t *testing.T) {
	e, err := Parse("ts=1331642138.25 event=x")
	if err != nil {
		t.Fatal(err)
	}
	want := time.Unix(1331642138, 250000000).UTC()
	if !e.TS.Equal(want) {
		t.Fatalf("TS = %v, want %v", e.TS, want)
	}
}

func TestParseRFC3339Nano(t *testing.T) {
	e, err := Parse("ts=2012-03-13T12:35:38.123456789Z event=x")
	if err != nil {
		t.Fatal(err)
	}
	if e.TS.Nanosecond() != 123456789 {
		t.Fatalf("nanos = %d", e.TS.Nanosecond())
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"missing ts":      "event=x a=1",
		"missing event":   "ts=2012-03-13T12:35:38.000000Z a=1",
		"empty event":     `ts=2012-03-13T12:35:38.000000Z event= a=1`,
		"bad ts":          "ts=notatime event=x",
		"no equals":       "ts=2012-03-13T12:35:38.000000Z event=x loose",
		"unclosed quote":  `ts=2012-03-13T12:35:38.000000Z event=x a="oops`,
		"empty key":       `ts=2012-03-13T12:35:38.000000Z event=x =v`,
		"only whitespace": "   ",
	}
	for name, line := range bad {
		if _, err := Parse(line); err == nil {
			t.Errorf("%s: Parse(%q) succeeded, want error", name, line)
		}
	}
}

func TestSetPanicsOnReservedKeys(t *testing.T) {
	for _, k := range []string{KeyTS, KeyEvent} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%q) did not panic", k)
				}
			}()
			New("x", ts0).Set(k, "v")
		}()
	}
}

// TestIntFloatAccessors pins the numeric attribute readers the archive
// and the views share: a miss of any kind is (0, false), never a partial
// value, and a float must be finite.
func TestIntFloatAccessors(t *testing.T) {
	type want struct {
		i   int64
		iOK bool
		f   float64
		fOK bool
	}
	for _, tc := range []struct {
		name, val string // val "" = attribute absent
		want
	}{
		{"absent", "", want{}},
		{"int", "-42", want{-42, true, -42, true}},
		{"float", "74.5", want{0, false, 74.5, true}},
		{"exponent", "1e3", want{0, false, 1000, true}},
		{"malformed", "12abc", want{}},
		{"empty value", `""`, want{}},
		{"int64 max", "9223372036854775807", want{math.MaxInt64, true, 9223372036854775807, true}},
		{"int overflow", "9223372036854775808", want{0, false, 9223372036854775808, true}},
		{"int underflow", "-9223372036854775809", want{0, false, -9223372036854775809, true}},
		{"float overflow", "1e400", want{}},
		{"NaN", "NaN", want{}},
		{"+Inf", "+Inf", want{}},
		{"-Inf", "-Inf", want{}},
		{"Infinity", "infinity", want{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			line := "ts=2012-03-13T12:35:38.000000Z event=x"
			if tc.val != "" {
				line += " v=" + tc.val
			}
			e, err := Parse(line)
			if err != nil {
				t.Fatal(err)
			}
			if i, ok := e.Int("v"); i != tc.i || ok != tc.iOK {
				t.Errorf("Int = %d, %v; want %d, %v", i, ok, tc.i, tc.iOK)
			}
			if f, ok := e.Float("v"); f != tc.f || ok != tc.fOK {
				t.Errorf("Float = %v, %v; want %v, %v", f, ok, tc.f, tc.fOK)
			}
		})
	}

	// Optional columns are usually absent: that read must not allocate.
	e := New("x", ts0).SetInt("i", 7)
	if n := testing.AllocsPerRun(100, func() {
		e.Int("absent")
		e.Float("absent")
		e.Int("i")
		e.Float("i")
	}); n != 0 {
		t.Errorf("absent and well-formed reads allocate %v times, want 0", n)
	}
}

func TestCloneIndependence(t *testing.T) {
	e := New("x", ts0).Set("a", "1")
	c := e.Clone()
	c.Set("a", "2").Set("b", "3")
	if e.Get("a") != "1" || e.Get("b") != "" {
		t.Fatal("Clone shares attribute map")
	}
}

func TestFormatDeterministic(t *testing.T) {
	e := New("x", ts0).Set("z", "1").Set("a", "2").Set("m", "3")
	first := e.Format()
	for i := 0; i < 20; i++ {
		if got := e.Format(); got != first {
			t.Fatalf("nondeterministic Format: %q vs %q", got, first)
		}
	}
	if !strings.Contains(first, "a=2 m=3 z=1") {
		t.Fatalf("attributes not sorted: %q", first)
	}
}

// TestRepresentableIsTheUnixNanoRange: an instant is Representable exactly
// when a Unix nanosecond count holds it, at both edges of the range.
func TestRepresentableIsTheUnixNanoRange(t *testing.T) {
	lo, hi := time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
	for _, ts := range []time.Time{
		lo, hi, lo.Add(-1), hi.Add(1), lo.Add(-time.Second), hi.Add(time.Second),
		{}, time.Unix(0, 0), time.Now(), time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2300, 1, 1, 0, 0, 0, 0, time.FixedZone("", 3600)),
	} {
		if got, want := Representable(ts), time.Unix(0, ts.UnixNano()).Equal(ts); got != want {
			t.Errorf("Representable(%v) = %v, want %v", ts, got, want)
		}
	}
}
