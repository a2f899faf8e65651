// Package loader implements nl_load with the stampede_loader module: it
// consumes NetLogger BP event streams (from files, readers or the message
// bus) and folds them into the relational archive in batches; the archive
// validates each against the Stampede YANG schema as it folds it.
//
// Batching is the paper's key loader design decision (§V-D notes inserts
// are batched "to improve the performance of Pegasus workflows logging");
// BenchmarkLoaderBatchSize at the repository root quantifies it. Every
// load runs as a pipeline — a parse stage, then per shard one queue and one
// goroutine that batches and applies — routing events by xwf.id
// so per-workflow order is preserved while distinct workflows load in
// parallel (see pipeline.go); Options.Shards is the pipeline's width. A
// batch is as large as the load makes it: it is applied when full or when
// the bus runs dry, so BatchSize and FlushEvery bound the wait (and the
// events applied but not yet synced) and a lone event waits for neither.
package loader

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/mq"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wfclock"
)

// ViewObserver receives successfully applied events right after their
// batch commits, while the pooled events are still valid. Satisfied by
// *views.Views; an interface here keeps the loader free of a dependency
// on the serving layer (which itself builds on loader-adjacent packages
// for rebuilds and tests).
type ViewObserver interface {
	ObserveBatch(evs []*bp.Event)
}

// Options configures a Loader.
type Options struct {
	// BatchSize is the most events folded into the archive per batch, and
	// the most a shard leaves applied but not yet synced. Zero means
	// DefaultBatchSize; 1 disables batching. With shards, each shard keeps
	// its own batch buffer of this size.
	BatchSize int
	// FlushEvery bounds how long an event may wait buffered before it is
	// applied, and applied before it is synced. Zero means DefaultFlushEvery.
	// Every load runs the ticker, file loads included; under Consume a shard
	// applies as soon as the bus runs dry and the tick is only the bound.
	FlushEvery time.Duration
	// Validate is ignored: the archive validates every event it folds
	// (archive.Archive.Apply), so no load skips the schema.
	//
	// Deprecated: set nothing; validation is always on.
	Validate bool
	// Lenient makes malformed BP lines and events the archive refuses
	// non-fatal: they are counted and skipped. Without it the load stops
	// reading at the first and returns its error once every event already
	// read is applied or counted.
	Lenient bool
	// Shards is the pipeline's width: the number of parallel apply
	// shards. Zero means one. Events route to shards by the archive
	// partition their xwf.id routes to (partition p feeds shard
	// p % Shards), so each workflow's events stay ordered while different
	// partitions apply in parallel — shards beyond the archive's partition
	// count stay idle; at width one the whole stream applies in arrival order
	// through a single goroutine, which is what makes an event-log
	// rebuild deterministic.
	Shards int
	// Clock drives the FlushEvery ticker. Nil means the wall clock;
	// tests inject a wfclock.Manual to make timer flushes deterministic.
	Clock wfclock.Clock
	// Tap, when set, runs on every raw line before it is parsed —
	// malformed lines included — on both ingest paths (reader and
	// consume). The soak harness and ingest binaries use
	// it to append lines to the event log, making the log a faithful
	// record of the stream as it arrived, not of what parsed. The line
	// buffer is only valid for the duration of the call. A Tap error is
	// fatal to the load even in Lenient mode: leniency tolerates bad
	// data, not a broken durability layer.
	Tap func(line []byte) error
	// Views, when set, receives every successfully applied event right
	// after its batch commits (and before the events are recycled), so
	// materialized aggregates stay incremental with the archive — the
	// dashboard serves from them instead of scanning snapshots. Every
	// shard feeds the same instance. Must be a
	// non-nil implementation when set (typically *views.Views).
	Views ViewObserver
}

// Default tuning, matched to the loader-scaling bench.
const (
	DefaultBatchSize  = 512
	DefaultFlushEvery = 500 * time.Millisecond
)

// shardQueueDepth bounds each shard's queue: a slow archive backpressures
// the parser instead of growing memory.
const shardQueueDepth = 256

// ShardStats reports one apply shard's share of a load.
type ShardStats struct {
	Shard        int           // shard index
	Applied      uint64        // events folded by this shard
	Batches      uint64        // batches applied
	MaxQueue     int           // apply-queue depth high-water mark
	FlushTime    time.Duration // cumulative time applying and syncing them
	MaxFlushTime time.Duration // worst single apply, sync or both
}

// Stats counts what happened during a load.
type Stats struct {
	Read      uint64 // events parsed from the source
	Loaded    uint64 // events folded into the archive
	Invalid   uint64 // events the archive refused: schema-invalid, or failed to apply
	Unknown   uint64 // events of a schema type the archive has no handler for
	Malformed uint64 // unparseable BP lines
	Elapsed   time.Duration
	// Shards holds the per-shard counters, one entry per apply shard, so
	// the scaling experiment can report where time goes.
	Shards []ShardStats

	// String() memo: the rendered line plus the counter values it was
	// rendered from, so periodic logging of unchanged stats reuses the
	// string instead of re-formatting every call.
	str    string
	strKey [6]uint64
}

// Rate returns loaded events per second.
func (s *Stats) Rate() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Loaded) / s.Elapsed.Seconds()
}

// String renders the counters as one log line. The line is built on
// demand and cached until a counter changes, so logging loops that print
// the same Stats repeatedly format it once.
func (s *Stats) String() string {
	key := [6]uint64{s.Read, s.Loaded, s.Invalid, s.Unknown, s.Malformed, uint64(s.Elapsed)}
	if s.str == "" || key != s.strKey {
		s.strKey = key
		s.str = s.format()
	}
	return s.str
}

func (s *Stats) format() string {
	var b []byte
	b = append(b, "read="...)
	b = strconv.AppendUint(b, s.Read, 10)
	b = append(b, " loaded="...)
	b = strconv.AppendUint(b, s.Loaded, 10)
	b = append(b, " invalid="...)
	b = strconv.AppendUint(b, s.Invalid, 10)
	b = append(b, " unknown="...)
	b = strconv.AppendUint(b, s.Unknown, 10)
	b = append(b, " malformed="...)
	b = strconv.AppendUint(b, s.Malformed, 10)
	b = append(b, " elapsed="...)
	b = append(b, s.Elapsed.String()...)
	b = append(b, " rate="...)
	b = strconv.AppendFloat(b, s.Rate(), 'f', 0, 64)
	b = append(b, "/s"...)
	return string(b)
}

// Loader loads BP event streams into one archive. A Loader may be used by
// one goroutine at a time per call, but separate calls (e.g. Consume on
// two queues) may run concurrently; the batch buffer is per-call.
type Loader struct {
	arch *archive.Archive
	opts Options
	// queueDepth is shardQueueDepth, except in this package's backpressure
	// and cancel tests, which shrink it.
	queueDepth int

	mu    sync.Mutex
	total Stats
	// rejected counts refused events as each is refused (see Rejected).
	rejected atomic.Uint64
}

// New returns a loader over arch.
func New(arch *archive.Archive, opts Options) (*Loader, error) {
	if opts.BatchSize == 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.BatchSize < 1 {
		return nil, fmt.Errorf("loader: batch size %d out of range", opts.BatchSize)
	}
	if opts.FlushEvery == 0 {
		opts.FlushEvery = DefaultFlushEvery
	}
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("loader: shard count %d out of range", opts.Shards)
	}
	if opts.Clock == nil {
		opts.Clock = wfclock.Real
	}
	return &Loader{arch: arch, opts: opts, queueDepth: shardQueueDepth}, nil
}

// TotalStats returns counters accumulated across every call on this
// loader.
func (l *Loader) TotalStats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Rejected reports how many events this loader has refused so far —
// malformed, invalid or of a type the archive does not materialise —
// counted as each is refused, while a call is still running. With the
// archive's Applied count it tells a live caller whether an event still
// in flight can yet be applied.
func (l *Loader) Rejected() uint64 { return l.rejected.Load() }

func (l *Loader) account(s Stats) {
	l.mu.Lock()
	l.total.Read += s.Read
	l.total.Loaded += s.Loaded
	l.total.Invalid += s.Invalid
	l.total.Unknown += s.Unknown
	l.total.Malformed += s.Malformed
	l.total.Elapsed += s.Elapsed
	l.mu.Unlock()
}

// batch is one apply shard's accumulation state.
type batch struct {
	arch     *archive.Archive
	opts     Options
	buf      []*bp.Event
	stats    Stats
	rejected *atomic.Uint64 // the loader's live count (Loader.Rejected)

	// owned is the partitions this shard alone feeds — the ones its
	// size-triggered syncs flush; unsynced counts the events applied since
	// the last sync of either kind, batches the applies.
	owned    relstore.PartitionSet
	unsynced int
	batches  uint64

	// traced holds the sampled events' trace context, gathered out of buf
	// before apply releases the events and kept until the sync that covers
	// them, when their commit spans are recorded.
	traced []tracedRef

	// Pre-resolved telemetry children for this shard.
	mApplied *telemetry.Counter
	mCommits [len(commitReasons)]*telemetry.Counter
	mSyncs   *telemetry.Counter
	mFlush   *telemetry.Histogram
}

// Why a shard applied its batch: indexes into commitReasons, the reason label
// of stampede_loader_commits_total. Timer and drain also sync the whole store.
const (
	commitIdle  = iota // the source had nothing more
	commitFull         // BatchSize events buffered
	commitTimer        // the FlushEvery tick
	commitDrain        // end of input, or the pipeline aborted
)

var commitReasons = [...]string{"idle", "full", "timer", "drain"}

// tracedRef is the part of a sampled event's trace context that must
// outlive its release: the id, its workflow (an immutable GC-managed
// string, safe past release), the last stage boundary and, once applied,
// the epoch at which the event became visible.
type tracedRef struct {
	id    uint64
	wf    string
	ns    int64
	epoch uint64
}

// newBatch builds the accumulation state for one apply shard, resolving
// its telemetry children up front.
func (l *Loader) newBatch(shard int) *batch {
	s := shardLabel(shard)
	b := &batch{
		arch: l.arch, opts: l.opts, rejected: &l.rejected,
		mApplied: mShardApplied.With(s),
		mSyncs:   mSyncs.With(s),
		mFlush:   mFlushSeconds.With(s),
	}
	var owned []int
	for p := shard; p < l.arch.Store().NumPartitions(); p += l.opts.Shards {
		owned = append(owned, p)
	}
	b.owned = l.arch.Store().PartitionSet(owned...)
	for i, reason := range commitReasons {
		b.mCommits[i] = mCommits.With(s, reason)
	}
	return b
}

// traceParsed records, for a sampled line, the span that brought it to the
// parse stage and its parse span, and stamps the trace context onto ev. t0 is
// the clock reading taken before the parse. A bus message (m) opens the route
// span, its dwell in the broker; a file line opens the emit span, from the
// event's own ts (clamped to zero length when the ts is in the wall clock's
// future — scaled virtual engine clocks).
func traceParsed(id uint64, t0 int64, m *mq.Message, ev *bp.Event) {
	wf := ev.Get(schema.AttrXwfID)
	if m != nil {
		trace.Record(id, trace.StageRoute, wf, m.TS.UnixNano(), t0)
	} else {
		trace.Record(id, trace.StageEmit, wf, min(ev.TS.UnixNano(), t0), t0)
	}
	now := time.Now().UnixNano()
	trace.Record(id, trace.StageParse, wf, t0, now)
	ev.TraceID, ev.TraceNS = id, now
}

// commit applies the buffered events, which makes them visible to readers
// and to the views, and syncs when it is due: the partitions the shard owns
// once BatchSize events are applied and unsynced, the whole store on the
// timer and on a drain, because the archive also writes outside them (host
// rows through partition 0's writer, a child plan's parent placeholder
// through the parent's). A sync costs one write and fsync per partition with
// records pending, so durability keeps the cadence batching gave it, at most
// BatchSize events or one FlushEvery behind, and visibility waits for
// neither. worked reports an apply, or a sync that covered this shard's events.
func (b *batch) commit(reason int) (worked bool, err error) {
	if len(b.buf) > 0 {
		worked = true
		b.batches++
		mBatchSize.Observe(float64(len(b.buf)))
		b.mCommits[reason].Inc()
		loaded0, invalid0, unknown0 := b.stats.Loaded, b.stats.Invalid, b.stats.Unknown
		err = b.apply()
		b.mApplied.Add(b.stats.Loaded - loaded0)
		mInvalid.Add(b.stats.Invalid - invalid0)
		mUnknown.Add(b.stats.Unknown - unknown0)
		if err != nil {
			return worked, err
		}
	}
	switch {
	case reason >= commitTimer:
		err = b.arch.Store().Flush()
	case b.unsynced >= b.opts.BatchSize:
		err = b.owned.Flush()
	default:
		return worked, nil
	}
	if b.unsynced > 0 { // else an idle tick: what it synced was another shard's
		worked = true
		b.unsynced = 0
		b.mSyncs.Inc()
		end := time.Now().UnixNano()
		for _, tr := range b.traced {
			trace.RecordCommit(tr.id, tr.wf, tr.ns, end, tr.epoch)
		}
		b.traced = b.traced[:0]
	}
	return worked, err
}

// apply folds the buffered events into the archive, which validates each,
// and the views. An event the archive refuses is counted and skipped; in
// strict mode the first refusal is returned once the rest of the batch is
// applied or counted too, so no event read goes unaccounted.
func (b *batch) apply() (first error) {
	// Gather sampled events' trace context before they are released. The
	// queue span (parse end to apply start) closes here and so does the
	// apply span, validation included; the commit span stays open until
	// the sync.
	traced0 := len(b.traced)
	var applyStart int64
	if trace.Enabled() {
		for _, ev := range b.buf {
			if ev.TraceID != 0 {
				b.traced = append(b.traced, tracedRef{id: ev.TraceID, wf: ev.Get(schema.AttrXwfID), ns: ev.TraceNS})
			}
		}
		if len(b.traced) > traced0 {
			applyStart = time.Now().UnixNano()
		}
	}
	b.unsynced += len(b.buf)
	// The batch path aborts at the first bad event; resume past it event
	// by event, classifying failures, until the tail is clean.
	rest := b.buf
	for len(rest) > 0 {
		n, err := b.arch.ApplyBatch(rest)
		b.stats.Loaded += uint64(n)
		if b.opts.Views != nil && n > 0 {
			// Fold the applied prefix into the materialized views before
			// the events are recycled. ApplyBatch published its epoch, so
			// every event observed here is already visible to snapshot
			// readers — the views trail the store, never lead it.
			b.opts.Views.ObserveBatch(rest[:n])
		}
		if err == nil {
			break
		}
		// rest[n] is the offender.
		bad := rest[n]
		rest = rest[n+1:]
		b.rejected.Add(1)
		if errors.Is(err, archive.ErrUnknownEvent) {
			b.stats.Unknown++
		} else {
			b.stats.Invalid++
		}
		if !b.opts.Lenient && first == nil {
			// Formatted now: releaseBuf hands bad back to the pool, where
			// it is reset and may be another parse's event.
			first = fmt.Errorf("loader: %s: %w", bad.Type, err)
		}
	}
	b.releaseBuf()
	if sampled := b.traced[traced0:]; len(sampled) > 0 {
		applyEnd := time.Now().UnixNano()
		// The epoch read after the apply is a version at which every event
		// of this batch is visible to snapshot readers.
		epoch := b.arch.Store().Epoch()
		for i := range sampled {
			tr := &sampled[i]
			trace.Record(tr.id, trace.StageQueue, tr.wf, tr.ns, applyStart)
			trace.Record(tr.id, trace.StageApply, tr.wf, applyStart, applyEnd)
			tr.ns, tr.epoch = applyEnd, epoch
		}
	}
	return first
}

// releaseBuf recycles the batch's events back to the event pool once the
// archive has folded (or rejected) them. The archive retains only the
// events' strings — immutable, GC-managed — never the events themselves,
// so recycling here cannot corrupt committed rows.
func (b *batch) releaseBuf() {
	for i, ev := range b.buf {
		bp.ReleaseEvent(ev)
		b.buf[i] = nil
	}
	b.buf = b.buf[:0]
}

// LoadReader loads a complete BP stream from r, flushing at EOF.
func (l *Loader) LoadReader(r io.Reader) (Stats, error) {
	start := time.Now()
	p := l.newPipeline()
	p.produceReader(r)
	return p.finish(start)
}

// LoadFile loads a BP log file.
func (l *Loader) LoadFile(path string) (Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return Stats{}, err
	}
	defer f.Close()
	return l.LoadReader(f)
}

// Consume drains messages from an mq delivery channel until the channel
// closes or ctx is done, folding message bodies (BP lines) into the
// archive. A shard applies its batch when it is full or msgs has nothing
// more to deliver, whichever is first, so a live dashboard sees a lone event
// at once and a backlog in full batches; the FlushEvery ticker is only the
// upper bound. This is the realtime path the paper's DART run used.
// Cancelling ctx only stops the reading: every
// message already taken off msgs is still applied (or counted as rejected)
// and flushed before Consume returns ctx's error. A failing Tap or, in
// strict mode, a malformed line ends the reading the same way.
func (l *Loader) Consume(ctx context.Context, msgs <-chan mq.Message) (Stats, error) {
	start := time.Now()
	p := l.newPipeline()
	p.produceMsgs(ctx, msgs)
	st, err := p.finish(start)
	if err == nil {
		err = ctx.Err()
	}
	return st, err
}

// ConsumeQueue is Consume over an in-process broker queue; it cancels the
// queue subscription when done.
func (l *Loader) ConsumeQueue(ctx context.Context, q *mq.Queue) (Stats, error) {
	ch := q.Consume()
	defer q.Cancel()
	return l.Consume(ctx, ch)
}
