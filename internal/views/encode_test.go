package views

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/archive"
)

// The encoder's contract: appendDelta writes exactly what encoding/json
// makes of delta(), which is the oracle here and what Workflows() hands
// callers that want fields. Where encoding/json refuses the value (a
// non-finite float, a year past 9999 — neither gets past ingest), appendDelta
// still writes JSON.

// jsCounts lays out job-state counts given as name, count pairs.
func jsCounts(pairs ...any) (js [numJS]int64) {
	for i := 0; i < len(pairs); i += 2 {
		js[jsIndexByName[pairs[i].(string)]] = int64(pairs[i+1].(int))
	}
	return js
}

// viewOf builds a workflow view field by field. Each quantile estimator gets
// one observation, which is then its estimate, so the three floats on the
// wire are exactly the three given.
func viewOf(uuid, label, host string, state uint8, planned time.Time, wall time.Duration,
	hasParent bool, js [numJS]int64, invs int64, p50, p95, p99 float64, observed bool, seq uint64) *wfView {
	w := &wfView{
		uuid: uuid, label: label, submitHost: host, state: state % uint8(len(stateNames)),
		planned: planned, hasParent: hasParent, js: js, invs: invs, seq: seq,
	}
	if wall != 0 {
		w.firstStart = time.Unix(1331642138, 0).UTC()
		w.lastStateTS = w.firstStart.Add(wall)
	}
	w.q50, _ = analysis.NewP2Quantile(0.50)
	w.q95, _ = analysis.NewP2Quantile(0.95)
	w.q99, _ = analysis.NewP2Quantile(0.99)
	if observed {
		w.q50.Observe(p50)
		w.q95.Observe(p95)
		w.q99.Observe(p99)
	}
	return w
}

// checkEncoding holds appendDelta to the oracle for one view, appending to a
// buffer that already has bytes in it.
func checkEncoding(t *testing.T, w *wfView) {
	t.Helper()
	const prefix = "data: "
	got := appendDelta([]byte(prefix), w)
	if !bytes.HasPrefix(got, []byte(prefix)) {
		t.Fatalf("appendDelta overwrote what the buffer held: %q", got)
	}
	got = got[len(prefix):]
	want, err := json.Marshal(w.delta())
	if err != nil {
		// No oracle. The encoder has no error path: it must still have
		// written JSON, or the frame takes every other delta down with it.
		if !json.Valid(got) {
			t.Fatalf("encoding/json refuses the view (%v) and appendDelta wrote what is not JSON: %s", err, got)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appendDelta differs from json.Marshal(delta()):\n got  %s\n want %s", got, want)
	}
}

var nastyStrings = []string{
	"", "plain", `quo"te`, `back\slash`, "<script>&amp;</script>", "tab\tnl\ncr\rbs\bff\f",
	"nul\x00 esc\x1b del\x7f", "sep\u2028para\u2029", "bad\xffutf8\xc3", "\xe2\x80", "trunc\xf0\x9f\x98",
	"café 日本語 \U0001f600", "\ufffd already", "00000000-0000-4000-8000-000000000000",
}

var nastyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 51.0, 0.1, 1.0 / 3, 123456789.12345678, 5e-324, math.MaxFloat64,
	1e-6, 9.999999999999999e-7, 1e-7, 1e21, 9.999999999999999e20, 1e22, -1e21, -1e-7, 1e-10, 1.5e-9, 1e100,
	0.30000000000000004, 2.2250738585072014e-308, 12345678901234567890,
}

var nastyTimes = []time.Time{
	{},
	time.Date(2012, 3, 13, 12, 35, 38, 0, time.UTC),
	time.Date(2012, 3, 13, 12, 35, 38, 123456789, time.UTC),
	time.Date(2012, 3, 13, 12, 35, 38, 120000000, time.UTC),
	time.Date(2012, 3, 13, 12, 35, 38, 1, time.FixedZone("", 5*3600+30*60)),
	time.Date(1999, 12, 31, 23, 59, 59, 999999000, time.FixedZone("PST", -8*3600)),
	time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
	time.Date(1, 1, 1, 0, 0, 0, 0, time.FixedZone("", -1)),
}

// TestDeltaEncodingCases walks the named hazards one at a time.
func TestDeltaEncodingCases(t *testing.T) {
	base := func() *wfView {
		return viewOf("wf", "label", "host", wfRunning, nastyTimes[1], 90*time.Second, false,
			jsCounts(archive.JSExecute, 3, archive.JSSuccess, 2), 5, 1.5, 2.5, 3.5, true, 7)
	}
	for _, s := range nastyStrings {
		w := base()
		w.uuid, w.label, w.submitHost = s, s, s
		checkEncoding(t, w)
	}
	for _, f := range nastyFloats {
		w := viewOf("wf", "l", "h", wfSuccess, nastyTimes[1], 0, true, [numJS]int64{}, 1, f, -f, f/3, true, 1)
		checkEncoding(t, w)
	}
	for _, ts := range nastyTimes {
		w := base()
		w.planned = ts
		checkEncoding(t, w)
	}
	for _, wall := range []time.Duration{0, 1, 999, time.Microsecond, time.Second, 36 * time.Hour, math.MaxInt64, -time.Second} {
		w := base()
		w.firstStart = nastyTimes[1]
		w.lastStateTS = w.firstStart.Add(wall)
		checkEncoding(t, w)
	}
	// job_states: omitted when empty, each name alone, all of them, and the
	// extremes of a count.
	w := base()
	w.js = [numJS]int64{}
	checkEncoding(t, w)
	if got := appendDelta(nil, w); bytes.Contains(got, []byte("job_states")) {
		t.Fatalf("empty job_states written: %s", got)
	}
	for i := 0; i < numJS; i++ {
		w.js = [numJS]int64{}
		w.js[i] = int64(i) + 1
		checkEncoding(t, w)
	}
	for i := range w.js {
		w.js[i] = math.MaxInt64 - int64(i)
	}
	w.js[jsIndexByName[archive.JSHeld]] = math.MinInt64
	checkEncoding(t, w)
	// No observation yet: the three quantiles read zero.
	checkEncoding(t, viewOf("wf", "", "", wfUnknown, time.Time{}, 0, false, [numJS]int64{}, 0, 9, 9, 9, false, 0))
	w = base()
	w.seq, w.invs = math.MaxUint64, math.MinInt64
	checkEncoding(t, w)
	// What encoding/json refuses is still written, as JSON.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncoding(t, viewOf("wf", "l", "h", wfFailure, nastyTimes[1], 0, false, [numJS]int64{}, 1, f, 1, f, true, 1))
	}
	w = base()
	w.planned = time.Date(12012, 1, 1, 0, 0, 0, 0, time.UTC)
	checkEncoding(t, w)
}

// TestDeltaEncodingProperty draws whole views from the hazard pools and from
// raw random bits.
func TestDeltaEncodingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	str := func() string {
		if rng.Intn(4) == 0 {
			b := make([]byte, rng.Intn(24))
			rng.Read(b)
			return string(b)
		}
		return nastyStrings[rng.Intn(len(nastyStrings))] + nastyStrings[rng.Intn(len(nastyStrings))]
	}
	float := func() float64 {
		if rng.Intn(3) == 0 {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
		return nastyFloats[rng.Intn(len(nastyFloats))]
	}
	for i := 0; i < 5000; i++ {
		var js [numJS]int64
		for k := range js {
			if rng.Intn(3) == 0 {
				js[k] = rng.Int63n(1 << uint(1+rng.Intn(40)))
			}
		}
		planned := nastyTimes[rng.Intn(len(nastyTimes))]
		if rng.Intn(2) == 0 {
			planned = time.Unix(rng.Int63n(253402300799), rng.Int63n(1e9)).In(time.FixedZone("", rng.Intn(28*3600)-14*3600))
		}
		checkEncoding(t, viewOf(str(), str(), str(), uint8(rng.Intn(4)), planned, time.Duration(rng.Int63()>>uint(rng.Intn(63))),
			rng.Intn(2) == 0, js, rng.Int63(), float(), float(), float(), rng.Intn(8) != 0, rng.Uint64()))
	}
}

// FuzzDeltaEncoding lets the fuzzer pick every field.
func FuzzDeltaEncoding(f *testing.F) {
	f.Add("wf", "label", "host", uint8(1), int64(1331642138), int64(0), 0, int64(time.Minute), false, uint16(0x0110), int64(3), 1.5, 2.5, 3.5, uint64(7))
	f.Add("a\"b", "<&>\u2028", "\xff\xfe", uint8(3), int64(-62135596800), int64(999999999), 19800, int64(1), true, uint16(0xffff), int64(-1), 1e21, 1e-7, math.Copysign(0, -1), uint64(math.MaxUint64))
	f.Add("", "", "", uint8(0), int64(253402300799), int64(1), -86399, int64(0), false, uint16(0), int64(0), math.NaN(), math.Inf(1), 5e-324, uint64(0))
	f.Fuzz(func(t *testing.T, uuid, label, host string, state uint8, sec, nsec int64, zone int, wall int64,
		hasParent bool, jsMask uint16, count int64, p50, p95, p99 float64, seq uint64) {
		var js [numJS]int64
		for i := range js {
			if jsMask&(1<<uint(i)) != 0 {
				js[i] = count + int64(i)
			}
		}
		planned := time.Unix(sec%(1<<38), nsec%1e9).In(time.FixedZone("", zone%(24*3600)))
		checkEncoding(t, viewOf(uuid, label, host, state, planned, time.Duration(wall), hasParent, js, count, p50, p95, p99, jsMask&1 == 0, seq))
	})
}

// TestSnapshotEncoding: the snapshot a stream opens with is the array of the
// same objects, in view-creation order, and one workflow's snapshot is its
// object or null.
func TestSnapshotEncoding(t *testing.T) {
	v := New(Options{FlushEvery: time.Hour})
	defer v.Close()
	if got := string(v.AppendSnapshot(nil, "")); got != "[]" {
		t.Fatalf("empty snapshot = %s, want []", got)
	}
	if got := string(v.AppendSnapshot(nil, "nobody")); got != "null" {
		t.Fatalf("unknown workflow's snapshot = %s, want null", got)
	}
	for _, uuid := range []string{"wf-c", "wf-a", "wf-b"} {
		v.ensure(uuid, nastyTimes[2])
	}
	want, err := json.Marshal(v.Workflows())
	if err != nil {
		t.Fatal(err)
	}
	if got := v.AppendSnapshot(nil, ""); !bytes.Equal(got, want) {
		t.Fatalf("snapshot differs from json.Marshal(Workflows()):\n got  %s\n want %s", got, want)
	}
	one, _ := json.Marshal(v.Workflows()[1])
	if got := v.AppendSnapshot([]byte("x"), "wf-a"); string(got) != "x"+string(one) {
		t.Fatalf("one workflow's snapshot = %s, want x%s", got, one)
	}
}

// checkListing holds AppendListing, appending to a buffer that already has
// bytes in it, to the listing encoding/json writes for the same rows.
func checkListing(t *testing.T, v *Views) {
	t.Helper()
	const prefix = "HTTP"
	got := v.AppendListing([]byte(prefix))
	if !bytes.HasPrefix(got, []byte(prefix)) {
		t.Fatalf("AppendListing overwrote what the buffer held: %q", got)
	}
	got = got[len(prefix):]
	want, err := ListingJSON(v)
	if err != nil {
		// encoding/json refuses a planned time past year 9999 or a zone
		// offset of a day or more, which no ingested event carries; the
		// listing is still JSON.
		if !json.Valid(got) {
			t.Fatalf("encoding/json refuses the rows (%v) and AppendListing wrote what is not JSON: %s", err, got)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendListing differs from encoding/json with SetIndent:\n got  %s\n want %s", got, want)
	}
}

// FuzzListingEncoding lets the fuzzer pick two listed workflows' strings,
// planned time, state, wall seconds and parent flag, and then a change to
// the first: each listing — the empty one, the first, and the one after the
// change, whose changed row is cached from the first — is what
// encoding/json with SetIndent writes for the same rows.
func FuzzListingEncoding(f *testing.F) {
	f.Add("wf", "label", "host", uint8(1), int64(1331642138), int64(0), 0, int64(time.Minute), false, "label2", "host2", uint8(2), int64(90*time.Second), true)
	f.Add("a\"b", "<&>\u2028", "\xff\xfe", uint8(3), int64(-62135596800), int64(999999999), 19800, int64(1), true, "\u2029\x00", "\xc3", uint8(0), int64(-1), false)
	f.Add("", "", "", uint8(0), int64(253402300799), int64(1), -86399, int64(0), false, "", "", uint8(7), int64(math.MaxInt64), true)
	for i, s := range nastyStrings {
		f.Add(s, s, nastyStrings[(i+1)%len(nastyStrings)], uint8(i), nastyTimes[i%len(nastyTimes)].Unix(),
			int64(nastyTimes[i%len(nastyTimes)].Nanosecond()), -3600*i, int64(i)*int64(time.Second)/3, i%2 == 0,
			nastyStrings[(i+2)%len(nastyStrings)], s, uint8(i+1), int64(i)*1234567, i%3 == 0)
	}
	f.Fuzz(func(t *testing.T, uuid, label, host string, state uint8, sec, nsec int64, zone int, wall int64,
		hasParent bool, label2, host2 string, state2 uint8, wall2 int64, hasParent2 bool) {
		v := New(Options{FlushEvery: time.Hour})
		defer v.Close()
		if got := string(v.AppendListing(nil)); got != "[]\n" {
			t.Fatalf("empty listing = %q, want %q", got, "[]\n")
		}
		checkListing(t, v)
		planned := time.Unix(sec%(1<<38), nsec%1e9).In(time.FixedZone("", zone%(24*3600)))
		set := func(uuid, label, host string, state uint8, wall int64, hasParent bool) {
			v.ensure(uuid, planned)
			st := v.stripeFor(uuid)
			st.mu.Lock()
			w := st.wfs[uuid]
			w.label, w.submitHost, w.state, w.hasParent = label, host, state%uint8(len(stateNames)), hasParent
			w.firstStart = time.Unix(1331642138, 0).UTC()
			w.lastStateTS = w.firstStart.Add(time.Duration(wall))
			v.touch(st, w)
			st.mu.Unlock()
		}
		set(uuid+"/a", label, host, state, wall, hasParent)
		set(uuid+"/b", label2, host2, state2, wall2, hasParent2)
		checkListing(t, v)
		set(uuid+"/a", label2, host2, state2, wall2, hasParent2)
		checkListing(t, v)
	})
}
