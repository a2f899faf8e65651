package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"
)

// loadScenarioFile parses one of the example scenarios shipped with the
// repository.
func loadScenarioFile(tb testing.TB, name string) *Scenario {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name))
	if err != nil {
		tb.Fatal(err)
	}
	sc, err := ParseScenario(data)
	if err != nil {
		tb.Fatal(err)
	}
	return sc
}

// streamDigest hashes everything a built stream carries: every field of
// every line in order, the ledger, the aggregates, and both per-workflow
// maps in key order.
func streamDigest(s *Stream) string {
	h := sha256.New()
	num := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(v string) {
		num(uint64(len(v)))
		h.Write([]byte(v))
	}
	flag := func(v bool) {
		if v {
			num(1)
		} else {
			num(0)
		}
	}
	num(uint64(len(s.Lines)))
	for i := range s.Lines {
		ln := &s.Lines[i]
		num(math.Float64bits(ln.At))
		hashTime(h, ln.TS)
		str(ln.Key)
		num(uint64(len(ln.Body)))
		h.Write(ln.Body)
		str(ln.WF)
		flag(ln.Malformed)
		flag(ln.Drop)
	}
	a := s.Acct
	for _, v := range []int{a.Emitted, a.Events, a.InjectedMalformed, a.InjectedDrops, a.ToPublish,
		s.Workflows, s.FailedJobs, s.TotalRetries} {
		num(uint64(v))
	}
	keys := make([]string, 0, len(s.WFLastTS))
	for k := range s.WFLastTS {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	num(uint64(len(keys)))
	for _, k := range keys {
		str(k)
		hashTime(h, s.WFLastTS[k])
	}
	keys = keys[:0]
	for k, v := range s.DroppedWFs {
		if v {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	num(uint64(len(keys)))
	for _, k := range keys {
		str(k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashTime writes the instant as seconds and nanoseconds since year 1, so
// the zero Time (malformed lines) hashes without overflowing UnixNano.
func hashTime(h hash.Hash, t time.Time) {
	var b [12]byte
	d := t.Sub(time.Time{})
	sec := int64(d / time.Second)
	binary.LittleEndian.PutUint64(b[:8], uint64(sec))
	binary.LittleEndian.PutUint32(b[8:], uint32(t.Nanosecond()))
	h.Write(b[:])
}

// TestBuildStreamGolden pins the built stream byte for byte: the soak
// report and the benchmark predict a run from it, so no change to how the
// stream is built may change what it holds. fault-soak.json covers the
// malformed-line and broker-drop draws, steady.json the plain stream. The
// digests must not depend on how many cores build it: three cores split
// the publish order into uneven ranges.
func TestBuildStreamGolden(t *testing.T) {
	cases := []struct {
		file    string
		seconds float64
		lines   int
		digest  string
	}{
		{"steady.json", 5, 10013, "8bc9297a308c6e1c10af94c1fcdc9263d15c6e04ed771628125123997dc348b3"},
		{"fault-soak.json", 6, 11171, "9fb392ac3e0470ba0b700223a4eca7a3904e8b46ac7ccc6ea637070fb8a7bf1d"},
	}
	for _, procs := range []int{1, 3, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			s, err := BuildStream(loadScenarioFile(t, tc.file), tc.seconds)
			if err != nil {
				t.Fatal(err)
			}
			if got := streamDigest(s); len(s.Lines) != tc.lines || got != tc.digest {
				t.Errorf("GOMAXPROCS=%d %s: %d lines, digest %s; want %d lines, digest %s",
					procs, tc.file, len(s.Lines), got, tc.lines, tc.digest)
			}
			if tc.file == "fault-soak.json" && (s.Acct.InjectedMalformed == 0 || s.Acct.InjectedDrops == 0) {
				t.Errorf("%s injected no malformed lines or no drops: %+v", tc.file, s.Acct)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestBuildStreamLeavesNothingRunning: the stream is complete when
// BuildStream returns, so none of the goroutines it starts outlives it. A
// goroutine past its WaitGroup Done is still counted until it returns, so
// the count gets a moment to settle; a leaked worker never would.
func TestBuildStreamLeavesNothingRunning(t *testing.T) {
	sc := loadScenarioFile(t, "fault-soak.json")
	before := runtime.NumGoroutine()
	for _, procs := range []int{1, 3} {
		prev := runtime.GOMAXPROCS(procs)
		_, err := BuildStream(sc, 2)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > before {
			t.Fatalf("GOMAXPROCS=%d: %d goroutines after BuildStream returned, %d before", procs, n, before)
		}
	}
}

// BenchmarkBuildStream builds the benchmark's 900k-line stream: the
// steady.json tenant mix at 30,000 events/s for 30 s, seed 42. It reports
// the build cost per line, in time and in heap allocations.
func BenchmarkBuildStream(b *testing.B) {
	sc := loadScenarioFile(b, "steady.json")
	sc.Arrival.Phases[0].Rate = 30000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	lines := 0
	for i := 0; i < b.N; i++ {
		s, err := BuildStream(sc, 30)
		if err != nil {
			b.Fatal(err)
		}
		lines += len(s.Lines)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lines), "ns/line")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(lines), "allocs/line")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(lines), "B/line")
}

// TestBuildStreamLinesDoNotAlias checks that rendered lines carved from a
// shared block are capped at their own length: appending to one line must
// reallocate it, never write into its neighbour.
func TestBuildStreamLinesDoNotAlias(t *testing.T) {
	s, err := BuildStream(loadScenarioFile(t, "fault-soak.json"), 6)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(s.Lines))
	for i := range s.Lines {
		body := s.Lines[i].Body
		if cap(body) != len(body) {
			t.Fatalf("line %d: cap(Body) = %d, len %d", i, cap(body), len(body))
		}
		want[i] = string(body) + "!"
	}
	for i := range s.Lines {
		s.Lines[i].Body = append(s.Lines[i].Body, '!')
	}
	for i := range s.Lines {
		if got := string(s.Lines[i].Body); got != want[i] {
			t.Fatalf("line %d changed by an append to another line:\n got %q\nwant %q", i, got, want[i])
		}
	}
}
