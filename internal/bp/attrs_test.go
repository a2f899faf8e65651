package bp_test

import (
	"testing"

	"repro/internal/bp"
)

func TestAttrsSetSortedAndLastWins(t *testing.T) {
	var a bp.Attrs
	a.Set("m", "1")
	a.Set("a", "2")
	a.Set("z", "3")
	a.Set("m", "4") // replace, not append
	a.Set("b", "5")
	if len(a) != 4 {
		t.Fatalf("Len = %d, want 4: %v", len(a), a)
	}
	want := []bp.Pair{{"a", "2"}, {"b", "5"}, {"m", "4"}, {"z", "3"}}
	for i, p := range want {
		if a[i] != p {
			t.Fatalf("a[%d] = %v, want %v (full: %v)", i, a[i], p, a)
		}
	}
	if got := a.Get("m"); got != "4" {
		t.Fatalf("Get(m) = %q, want 4 (last write wins)", got)
	}
	if _, ok := a.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) reported present")
	}
	if a.Get("missing") != "" {
		t.Fatal("Get(missing) not empty")
	}
}

func TestAttrsClone(t *testing.T) {
	var a bp.Attrs
	a.Set("k", "v")
	c := a.Clone()
	c.Set("k", "changed")
	if a.Get("k") != "v" {
		t.Fatal("Clone shares backing array with original")
	}
	if bp.Attrs(nil).Clone() != nil {
		t.Fatal("Clone of nil should stay nil")
	}
}

func TestDuplicateKeysLastWins(t *testing.T) {
	// The map representation gave duplicate keys last-write-wins
	// semantics; the slice representation must preserve that.
	ev, err := bp.Parse("ts=1 event=x a=1 b=2 a=3")
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.Get("a"); got != "3" {
		t.Fatalf("duplicate key: Get(a) = %q, want 3", got)
	}
	if len(ev.Attrs) != 2 {
		t.Fatalf("attr count = %d, want 2: %v", len(ev.Attrs), ev.Attrs)
	}
}

func TestInternCanonicalises(t *testing.T) {
	// Two separately-built equal strings must intern to one instance.
	s1 := bp.Intern(string([]byte("intern.test.key.1")))
	s2 := bp.Intern(string([]byte("intern.test.key.1")))
	if s1 != s2 {
		t.Fatal("interned strings differ in value")
	}
	// Oversized strings pass through untouched.
	big := string(make([]byte, 100))
	if bp.Intern(big) != big {
		t.Fatal("oversized string should pass through")
	}
	if bp.Intern("") != "" {
		t.Fatal("empty string should pass through")
	}
}

func TestPoolRoundTrip(t *testing.T) {
	ev := bp.GetEvent()
	ev.Type = "x"
	ev.Attrs.Set("k", "v")
	clone := ev.Clone()
	bp.ReleaseEvent(ev)
	if clone.Type != "x" || clone.Get("k") != "v" {
		t.Fatalf("clone corrupted by release: %v", clone)
	}
	// A fresh get must hand back an empty event even if it recycled ev.
	ev2 := bp.GetEvent()
	if ev2.Type != "" || len(ev2.Attrs) != 0 || !ev2.TS.IsZero() {
		t.Fatalf("pooled event not reset: %v", ev2)
	}
	bp.ReleaseEvent(ev2)
	bp.ReleaseEvent(nil) // tolerated

	hits, misses, returns := bp.PoolStats()
	if hits+misses == 0 || returns == 0 {
		t.Fatalf("pool stats not counting: hits=%d misses=%d returns=%d", hits, misses, returns)
	}
}

func TestParseBytesReleasesOnError(t *testing.T) {
	_, _, before := bp.PoolStats()
	if _, err := bp.ParseBytes([]byte("not a bp line")); err == nil {
		t.Fatal("want error")
	}
	_, _, after := bp.PoolStats()
	if after != before+1 {
		t.Fatalf("ParseBytes leaked the pooled event on error: returns %d -> %d", before, after)
	}
}

func TestParseTime(t *testing.T) {
	for _, v := range []string{
		"2012-03-13T12:35:38.000000Z",
		"2012-03-13T12:35:38.123456Z",
		"2012-03-13T12:35:38Z",
		"1331642138.25",
		"0",
	} {
		ts, err := bp.ParseTime(v)
		if err != nil {
			t.Fatalf("ParseTime(%q): %v", v, err)
		}
		if ts.IsZero() && v != "0001-01-01T00:00:00.000000Z" {
			// epoch 0 is 1970, not the zero time
			if v == "0" && ts.Unix() != 0 {
				t.Fatalf("ParseTime(0) = %v", ts)
			}
		}
	}
	// The fixed-width fast path must agree with time.Parse exactly.
	canon := "2016-02-29T23:59:59.999999Z"
	ts, err := bp.ParseTime(canon)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.UTC().Format(bp.TimeFormat); got != canon {
		t.Fatalf("fast path round-trip: %q -> %q", canon, got)
	}
	for _, bad := range []string{"", "NaN", "+Inf", "1e300", "2012-13-40T00:00:00.000000Z", "not-a-time"} {
		if _, err := bp.ParseTime(bad); err == nil {
			t.Fatalf("ParseTime(%q) accepted", bad)
		}
	}
}
