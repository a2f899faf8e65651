// Package trace is the pipeline's end-to-end event-tracing layer: it
// follows individual BP events from engine emission (using the event's
// own ts) through bus routing, parse, shard queueing, archive apply
// (schema validation included) and batch commit — the paper's evaluation
// measures exactly this path ("the average latency from the time an event
// was generated until it was available in the database"), and this package
// makes the same measurement continuously available on a live system.
//
// Tracing is always on but sampled: a deterministic hash of the raw BP
// line selects roughly one event in SampleEvery. Determinism means every
// process that sees the same line makes the same decision, so a trace's
// spans line up across the broker, the loader and the archive without
// any context propagation on the wire. Sampled events carry their trace
// id on the pooled bp.Event (reset by ReleaseEvent); spans land in a
// fixed-size lock-free ring buffer (ring.go) and feed per-stage latency
// histograms. Unsampled events pay one hash and no allocations — the
// hot-path budget in hotpath_alloc_test.go holds with tracing at the
// default rate.
//
// Under scaled virtual clocks (pegasus-run/triana-run -scale) event
// timestamps run ahead of the wall clock, so emit spans can be negative;
// they are recorded truthfully and the caveat is documented in DESIGN.md.
// Freshness is not this package's: each archive partition keeps the
// newest event timestamp it has applied (archive.Archive.Watermark).
package trace

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Stage identifies one hop of an event's journey. The values are wire
// format for ring slots; do not reorder.
type Stage uint8

const (
	// StageEmit spans the event's own ts to its handoff into the pipeline:
	// the bus publish for engine emitters, the parse start for file loads.
	StageEmit Stage = iota
	// StageRoute is broker dwell: bus enqueue (Message.TS) to the
	// consumer's dequeue.
	StageRoute
	// StageParse is BP line decode.
	StageParse
	// StageQueue is the wait between parse end and the batch starting to
	// apply: shard-queue and batch-buffer residence, which ends when the
	// batch fills or the source runs dry. Under a backlog it is the event's
	// turn in the batch; on a quiet bus it is next to nothing.
	StageQueue
	// StageApply is the archive fold of the event's batch, schema
	// validation included; at its end the event is visible to snapshot
	// readers and the views.
	StageApply
	// StageCommit runs from the end of the apply to the end of the sync
	// (WAL write + fsync) that covered the event — how long it was visible
	// but not yet durable, at most BatchSize events or one FlushEvery. Its
	// epoch is the one read right after the apply: a version at which the
	// event is visible.
	StageCommit
	// StageDropped is a tombstone: the event's copy was discarded on a
	// full queue. Its label is the queue name, its span the queue dwell
	// before the drop.
	StageDropped

	numStages
)

var stageNames = [numStages]string{
	"emit", "route", "parse", "queue", "apply", "commit", "dropped",
}

// String returns the stage's label as exposed on metrics and JSON.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// DefaultSampleEvery is the default sampling rate: one event in 64.
const DefaultSampleEvery = 64

var sampleEvery atomic.Int64

func init() {
	sampleEvery.Store(DefaultSampleEvery)
}

// SetSampleEvery sets the sampling rate to one event in n. n == 1 traces
// everything; n == 0 disables tracing; negative n is treated as 0. No
// binary sets it: every process samples at DefaultSampleEvery, which is
// what makes the engines', the broker's and the loader's spans of one line
// agree. It is the hook tests use to trace every event.
func SetSampleEvery(n int) {
	if n < 0 {
		n = 0
	}
	sampleEvery.Store(int64(n))
}

// SampleEvery returns the current sampling rate (0 = disabled).
func SampleEvery() int { return int(sampleEvery.Load()) }

// Enabled reports whether tracing is on at all. Instrumentation sites
// use it to skip clock reads for the unsampled fast path.
func Enabled() bool { return sampleEvery.Load() != 0 }

// Sample decides whether the raw BP line is traced and returns its trace
// id, or 0 when unsampled (or tracing is off). The id is a deterministic
// hash of the line bytes, so every process observing the same line
// derives the same id and the same decision — spans recorded broker-side
// and loader-side assemble into one trace with no context on the wire.
func Sample(line []byte) uint64 {
	n := sampleEvery.Load()
	if n == 0 {
		return 0
	}
	id := hashLine(line)
	if id%uint64(n) != 0 {
		return 0
	}
	return id
}

// hashLine is FNV-1a folded eight bytes at a time, at ~1/6th the cost of
// the byte-wise variant for a typical 200-byte BP line, which keeps the
// per-event tracing tax inside the loader's <5% throughput budget. A
// multiply only carries low bits upward, so the fold's low bits depend on
// the low bits of every eighth byte alone; murmur3's fmix64 finaliser
// spreads every input bit over the word before Sample takes it modulo the
// rate. 0 is reserved for "unsampled".
func hashLine(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime64
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	if h == 0 {
		h = 1
	}
	return h
}

// Per-stage latency histograms, children pre-resolved so Record is two
// atomic bumps and a ring write. Resolving them at init also guarantees
// the family appears in the exposition (with zero counts) before the
// first sampled event.
var (
	mStageSeconds = telemetry.NewHistogramVec("stampede_trace_stage_seconds",
		"Per-stage latency of sampled events, from engine emission to snapshot visibility.",
		telemetry.DurationBuckets, "stage")
	stageHists [numStages]*telemetry.Histogram

	mSpans = telemetry.NewCounter("stampede_trace_spans_total",
		"Spans recorded for sampled events across all stages.")
)

func init() {
	for s := Stage(0); s < numStages; s++ {
		stageHists[s] = mStageSeconds.With(s.String())
	}
}

// Record stores one span of a sampled event: trace id, stage, label (the
// workflow uuid, or the queue name for StageDropped) and the span's
// [start, end] in Unix nanoseconds. It is lock-free and allocation-free
// once the label has been seen.
func Record(id uint64, st Stage, label string, start, end int64) {
	recordSpan(id, st, label, start, end, 0)
}

// RecordCommit is Record for StageCommit with a relstore epoch at which
// the event's batch was visible to snapshot readers.
func RecordCommit(id uint64, label string, start, end int64, epoch uint64) {
	recordSpan(id, StageCommit, label, start, end, epoch)
}

func recordSpan(id uint64, st Stage, label string, start, end int64, epoch uint64) {
	if id == 0 {
		return
	}
	stageHists[st].Observe(float64(end-start) / 1e9)
	mSpans.Inc()
	defaultRing.put(id, st, nameIdx(label), start, end, epoch)
}

// Emit records the emission span for one formatted BP line if it is
// sampled: the event's own ts to now (the handoff into the bus). Engine
// appenders call it at publish time. A ts in the future of the wall
// clock (scaled virtual engine clocks) is clamped to a zero-length span.
func Emit(line []byte, ts time.Time, wf string) {
	id := Sample(line)
	if id == 0 {
		return
	}
	now := time.Now().UnixNano()
	start := ts.UnixNano()
	if start > now {
		start = now
	}
	Record(id, StageEmit, wf, start, now)
}

// Drop records a tombstone for a message discarded on a full queue: the
// span is broker dwell from enqueue to the drop, labeled with the queue
// name. The mq broker calls it so a trace that dies on an overflowing
// queue says so instead of going silent.
func Drop(queue string, body []byte, enqueued time.Time) {
	id := Sample(body)
	if id == 0 {
		return
	}
	Record(id, StageDropped, queue, enqueued.UnixNano(), time.Now().UnixNano())
}
