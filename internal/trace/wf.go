package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Ring slots are fixed-width words (ring.go), so span labels — workflow
// uuids, queue names — are stored as indices into a process-wide name
// table: a map and its inverse slice under one RWMutex, the shape of the
// watermark registry below. A lookup — a hit, or a miss once the table is
// full — takes the read lock and allocates nothing; the write lock is for
// the first sighting of a label, which costs one map insert and one
// amortised append however many labels came before it.

// maxNames bounds the table so a label-cardinality explosion cannot grow
// memory without bound; labels past the cap collapse to index 0 ("").
const maxNames = 65536

var names = struct {
	mu     sync.RWMutex
	byName map[string]uint32
	byIdx  []string // index -> name; append-only
}{byName: map[string]uint32{"": 0}, byIdx: []string{""}}

// nameIdx interns a label, returning its slot index.
func nameIdx(name string) uint32 {
	if name == "" {
		return 0
	}
	names.mu.RLock()
	idx, ok := names.byName[name]
	full := len(names.byIdx) >= maxNames
	names.mu.RUnlock()
	if ok || full {
		return idx
	}
	names.mu.Lock()
	defer names.mu.Unlock()
	if idx, ok := names.byName[name]; ok {
		return idx
	}
	if len(names.byIdx) >= maxNames {
		return 0
	}
	idx = uint32(len(names.byIdx))
	names.byName[name] = idx
	names.byIdx = append(names.byIdx, name)
	return idx
}

// nameAt resolves a slot index back to its label.
func nameAt(idx uint32) string {
	names.mu.RLock()
	defer names.mu.RUnlock()
	if int(idx) < len(names.byIdx) {
		return names.byIdx[idx]
	}
	return ""
}

// Watermark is one workflow's freshness high-water mark: the maximum
// event timestamp the archive has applied (and published) for it.
// Advance is a lock-free max-CAS, cheap enough for the per-event apply
// path; the freshness gauge (now − max) is computed at scrape time.
type Watermark struct {
	max atomic.Int64 // Unix nanoseconds; 0 = nothing applied yet
}

// Advance raises the watermark to ts if it is newer. Out-of-order
// applies (restart replays, multi-producer buses) leave it untouched.
func (w *Watermark) Advance(ts int64) {
	for {
		old := w.max.Load()
		if ts <= old || w.max.CompareAndSwap(old, ts) {
			return
		}
	}
}

// Max returns the newest applied event timestamp, or the zero time when
// nothing has been applied.
func (w *Watermark) Max() time.Time {
	ns := w.max.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

var mFreshness = telemetry.NewGaugeVec("stampede_trace_freshness_seconds",
	"Per-workflow data freshness: now minus the newest applied event timestamp. "+
		"Negative under scaled virtual engine clocks.", "workflow")

// maxWatermarks bounds per-workflow gauge cardinality; workflows past
// the cap share one overflow watermark so Advance stays cheap and
// correct in aggregate even when the gauge set is saturated.
const maxWatermarks = 4096

var watermarks = struct {
	mu sync.RWMutex
	by map[string]*Watermark
	of Watermark // shared overflow entry past maxWatermarks
}{by: map[string]*Watermark{}}

// WatermarkFor returns the workflow's watermark, creating (and
// registering its freshness gauge) on first sight. The archive memoises
// the pointer per stripe, but interleaved workflows sharing a stripe miss
// that memo constantly, so a lookup — the over-cap one included — takes
// only the read lock; the write lock is for a workflow's first event.
func WatermarkFor(wf string) *Watermark {
	watermarks.mu.RLock()
	w, ok := watermarks.by[wf]
	full := len(watermarks.by) >= maxWatermarks
	watermarks.mu.RUnlock()
	if ok {
		return w
	}
	if full {
		return &watermarks.of
	}
	watermarks.mu.Lock()
	defer watermarks.mu.Unlock()
	if w, ok := watermarks.by[wf]; ok {
		return w
	}
	if len(watermarks.by) >= maxWatermarks {
		return &watermarks.of
	}
	w = &Watermark{}
	watermarks.by[wf] = w
	mFreshness.SetFunc(func() float64 {
		ns := w.max.Load()
		if ns == 0 {
			return 0
		}
		return float64(time.Now().UnixNano()-ns) / 1e9
	}, wf)
	return w
}

// ForgetWatermarks drops the given workflows' entries and freshness gauges,
// so each starts again from "nothing applied". The table is process-global
// and Advance is a max: a harness that plays the same workflow uuids twice
// in one process (a seeded soak scenario run again) would otherwise read the
// earlier run's final values from its first event on.
func ForgetWatermarks(wfs []string) {
	watermarks.mu.Lock()
	defer watermarks.mu.Unlock()
	for _, wf := range wfs {
		if _, ok := watermarks.by[wf]; ok {
			delete(watermarks.by, wf)
			mFreshness.Delete(wf)
		}
	}
}

// WatermarkOf reports the workflow's watermark without creating one.
func WatermarkOf(wf string) (time.Time, bool) {
	watermarks.mu.RLock()
	w, ok := watermarks.by[wf]
	watermarks.mu.RUnlock()
	if !ok {
		return time.Time{}, false
	}
	return w.Max(), true
}

// WatermarkMax returns the newest applied event timestamp across the
// given workflows, ignoring ones with no watermark yet. The watermark
// table is process-global, so freshness monitors scope their reads to
// the workflows of one run rather than the whole process.
func WatermarkMax(wfs []string) (time.Time, bool) {
	var max time.Time
	any := false
	watermarks.mu.RLock()
	defer watermarks.mu.RUnlock()
	for _, wf := range wfs {
		w, ok := watermarks.by[wf]
		if !ok {
			continue
		}
		if ts := w.Max(); !ts.IsZero() && ts.After(max) {
			max = ts
			any = true
		}
	}
	return max, any
}
