//go:build !race

// The race detector changes allocation behaviour, so this budget is
// enforced only in plain runs.

package synth

import (
	"runtime"
	"testing"
)

// The ceilings are enforced upper bounds on building steady.json for 5 s
// (10,013 lines) on two cores, not targets. Measured: 1.22 allocs and
// ≈ 810 bytes a line, where generating every event with bp.New and sorted
// inserts measured 3.8 allocs and ≈ 1,280 bytes. Per line what is left is
// its body twice (rendered by a worker, then copied in publish order), its
// Line twice (per workflow, then in the stream), its offset and its place
// in the publish order, plus the attribute values Generate formats (dur,
// remote_cpu_time, start_time). The headroom covers the workflows the
// workers generate past the population and then drop, and where a worker
// starts its next 1 MiB render block, ≈ 100 bytes a line of this build
// (measured up to ≈ 910); going back to an allocation per event or per
// attribute blows well past it.
const (
	maxBuildAllocsPerLine = 1.6
	maxBuildBytesPerLine  = 1100
)

func TestBuildStreamAllocCeiling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sc := loadScenarioFile(t, "steady.json")
	if _, err := BuildStream(sc, 5); err != nil { // warm
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s, err := BuildStream(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(s.Lines))
	allocs := float64(m1.Mallocs-m0.Mallocs) / n
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	t.Logf("BuildStream: %.2f allocs/line (ceiling %.1f), %.0f B/line (ceiling %d)", allocs, maxBuildAllocsPerLine, bytes, maxBuildBytesPerLine)
	if allocs > maxBuildAllocsPerLine {
		t.Errorf("BuildStream allocates %.2f/line, ceiling %.1f", allocs, maxBuildAllocsPerLine)
	}
	if bytes > maxBuildBytesPerLine {
		t.Errorf("BuildStream allocates %.0f B/line, ceiling %d", bytes, maxBuildBytesPerLine)
	}
}
