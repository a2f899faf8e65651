package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// traceDigest hashes everything a trace carries: every event's BP line in
// order and the identifiers and aggregates beside them.
func traceDigest(tr *Trace) string {
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
	num(uint64(len(tr.Events)))
	for _, ev := range tr.Events {
		str(ev.Format())
	}
	str(tr.RootUUID)
	num(uint64(len(tr.SubUUIDs)))
	for _, u := range tr.SubUUIDs {
		str(u)
	}
	num(uint64(len(tr.Hostnames)))
	for _, n := range tr.Hostnames {
		str(n)
	}
	num(uint64(tr.FailedJobs))
	num(uint64(tr.TotalRetries))
	num(math.Float64bits(tr.MakespanSeconds))
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden pins Generate's output byte for byte over every shape
// it builds: flat and layered DAGs, clustered tasks, retries, meta-workflows,
// explicit stage graphs, several job types, stragglers, queue delay, a
// negative seed, and more jobs than an id's zero padding holds.
func TestGenerateGolden(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		events int
		digest string
	}{
		{"flat", Config{Seed: 7, Jobs: 20, FailureRate: 0.2, MaxRetries: 2}, 261, "6f00e5000aef7743aa0188ccd1e2777fb03205d6e69c021fc2fe34df60b2fd89"},
		{"layered", Config{Seed: 3, Jobs: 15, FailureRate: 0.3, MaxRetries: 1, TasksPerJob: 2, Width: 5}, 257, "11f9332f633821fcd80a23e29a8e170105eeb46e8a5e5d1e8b97833f45bbcfb9"},
		{"meta", Config{Seed: 5, Jobs: 32, SubWorkflows: 4, Hosts: 2, SlotsPerHost: 2, FailureRate: 0.2, MaxRetries: 1, TasksPerJob: 3}, 698, "c5dd9f2f813b39a2af12bf27c50f6cbce714eec9a9409e0837cb296d3dcd8218"},
		{"stages", Config{Seed: -21, Label: "st", QueueDelayMean: 2.5, FailureRate: 0.25, MaxRetries: 2,
			HostSlowdown: map[int]float64{1: 3},
			Stages: []StageSpec{
				{Name: "ingest", Jobs: 2, MeanSeconds: 20, StddevPct: 0.1},
				{Name: "process", Jobs: 8, MeanSeconds: 90, StddevPct: 0.3, After: []string{"ingest"}},
				{Name: "side", Jobs: 3, MeanSeconds: 5, After: []string{"ingest"}},
				{Name: "merge", Jobs: 1, MeanSeconds: 15, StddevPct: 0.1, After: []string{"process", "side"}},
			}}, 196, "7d214265ef420bbd7e905e71b42ed2024f67919a91b21827b7d1954dbf91f99c"},
		{"jobtypes", Config{Seed: 9, Jobs: 40, Hosts: 8, SlotsPerHost: 4, Width: 7,
			JobTypes: []JobType{{Name: "fft", MeanSeconds: 10, StddevPct: 0.5, Weight: 3}, {Name: "zip", MeanSeconds: 0.05, Weight: 1}}}, 471, "9fa8d049221297329a1fb1b1033b7418e2add5646476570c42f90b222887aa38"},
		{"wide", Config{Seed: 11, Jobs: 10012, Hosts: 16}, 100125, "f949cb6d31a684341fd1aad39ab69127c3d99cf17e5ab72fb71ec64b91fda347"},
		{"subs", Config{Seed: 12, Jobs: 1001, SubWorkflows: 1001}, 21026, "bdefc03c7ea5b9278abc4ca482c8f6d5dcc70afe7b56cefef5b3bdddaac15760"},
	}
	for _, tc := range cases {
		tr := Generate(tc.cfg)
		if got := traceDigest(tr); len(tr.Events) != tc.events || got != tc.digest {
			t.Errorf("%s: %d events, digest %s; want %d events, digest %s",
				tc.name, len(tr.Events), got, tc.events, tc.digest)
		}
	}
}
