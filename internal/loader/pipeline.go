package loader

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/mq"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wfclock"
)

// The pipeline every load runs through: one parse stage (the caller's
// goroutine) feeding, per shard, one bounded queue and one goroutine that
// batches and applies, the archive validating each event as it folds it:
//
//	source -> parse -> route by xwf.id -> queue[s] -> batch, validate + apply -> partition
//
// Events route with archive.Route, the router the archive places rows with:
// a workflow's partition is Route(xwf.id, partitions) and that partition's
// events all go to shard partition % shards. Every event of one workflow
// therefore flows through one shard in arrival order — the archive's
// per-workflow ordering contract — and every partition is entered by one
// shard only, so its writer and identity caches have one owner from the
// queue down. Different shards apply concurrently. The bounded queue gives
// backpressure end to end: a slow archive fills it, which blocks the
// parser.
//
// A shard applies its batch when it is full or when the source has nothing
// more: the parse stage, about to block on an empty delivery channel or on a
// reader it has drained (dryReader), tells the shards it fed (sourceIdle),
// and each drains its queue and applies — the bus's rule, flush when there
// is nothing more to write, at the head of the pipeline. A lone event is
// visible at once, a backlog still fills batches.
// Durability is the separate sync (batch.commit), due every BatchSize applied
// events or FlushEvery tick: both options are upper bounds, neither a wait.
//
// Validation runs on the apply goroutine, inside Archive.ApplyBatch. Per-
// workflow order needs a worker paired with the shard anyway — a free pool
// could finish two events of one workflow out of order — and a separate
// validating goroutine with its own queue measured no faster end to end
// (CHANGES.md), so a width-N pipeline runs N goroutines beside the parser.

type pipeline struct {
	l *Loader
	// ctx is the pipeline's own abort signal, cancelled when a stage
	// fails (fail): the parse stage stops feeding and each shard commits
	// what it was handed. It is deliberately not the caller's context —
	// whatever stops the parse stage itself (a caller cancelling Consume,
	// a failing Tap, a malformed line in strict mode) stops only the
	// reading, and the stages then drain by channel close as at end of
	// input, so no event already read is dropped.
	ctx    context.Context
	cancel context.CancelFunc
	shards []*pshard
	parts  int // the archive's partition count, for routing
	wg     sync.WaitGroup

	emu sync.Mutex
	err error

	// Parser-owned counters (single producer goroutine).
	read      uint64
	malformed uint64
}

// pshard is one shard's queue, batch buffer and counters. The counters
// belong to the shard's goroutine; finish() reads them after wg.Wait.
type pshard struct {
	idx int
	ch  chan *bp.Event
	// idle is the parse stage's 1-slot signal that the source ran dry; fed,
	// touched only by the parse stage, that the shard got an event since.
	idle chan struct{}
	fed  bool
	b    *batch

	maxQueue  int
	flushTime time.Duration
	maxFlush  time.Duration

	// Pre-resolved telemetry children (label shard=idx).
	mQueueDepth *telemetry.Gauge
	mQueueHW    *telemetry.Gauge
}

func (l *Loader) newPipeline() *pipeline {
	ctx, cancel := context.WithCancel(context.Background())
	p := &pipeline{l: l, ctx: ctx, cancel: cancel, parts: l.arch.Store().NumPartitions()}
	for i := 0; i < l.opts.Shards; i++ {
		sh := &pshard{
			idx:         i,
			ch:          make(chan *bp.Event, l.queueDepth),
			idle:        make(chan struct{}, 1),
			b:           l.newBatch(i),
			mQueueDepth: mShardQueueDepth.With(shardLabel(i)),
			mQueueHW:    mShardQueueHighWater.With(shardLabel(i)),
		}
		p.shards = append(p.shards, sh)
		p.wg.Add(1)
		go func() { defer p.wg.Done(); sh.run(p) }()
	}
	return p
}

// note records the first error and stops nothing: the parse stage notes
// what ended its reading and returns.
func (p *pipeline) note(err error) {
	p.emu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.emu.Unlock()
}

// fail records the first error and aborts the pipeline.
func (p *pipeline) fail(err error) {
	if err == nil {
		return
	}
	p.note(err)
	p.cancel()
}

func (p *pipeline) firstErr() error {
	p.emu.Lock()
	defer p.emu.Unlock()
	return p.err
}

// dispatch hands an event to the shard that owns its workflow's partition,
// blocking for backpressure. It returns false when the pipeline was
// aborted.
func (p *pipeline) dispatch(ev *bp.Event) bool {
	sh := p.shards[archive.Route(ev.Get(schema.AttrXwfID), p.parts)%len(p.shards)]
	select {
	case sh.ch <- ev:
		sh.fed = true
		return true
	case <-p.ctx.Done():
		return false
	}
}

// sourceIdle tells every shard fed since the last call that the source has
// nothing more for now. The signal follows the events down, so a shard that
// sees it finds in its queue everything dispatched before it.
func (p *pipeline) sourceIdle() {
	for _, sh := range p.shards {
		if sh.fed {
			sh.fed = false
			select {
			case sh.idle <- struct{}{}:
			default: // one is pending; it covers these events too
			}
		}
	}
}

// dryReader is the io.Reader form of produceMsgs's empty-channel check. The
// line scanner reads only when it holds no complete line, and a read that
// came back with less than it had room for took all the source had: the
// next one may block, so the fed shards are told first. A file fills every
// read but its last and so never trips this while it has lines left; a pipe
// or socket trips it whenever the writer pauses.
type dryReader struct {
	r     io.Reader
	p     *pipeline
	short bool // the last read did not fill its buffer
}

func (d *dryReader) Read(b []byte) (int, error) {
	if d.short {
		d.p.sourceIdle()
	}
	n, err := d.r.Read(b)
	d.short = n < len(b)
	return n, err
}

// produceReader is the parse stage over an io.Reader source: each content
// line (bp.Reader skips blank and '#' lines) goes through ingest, numbered.
func (p *pipeline) produceReader(r io.Reader) {
	br := bp.NewReader(&dryReader{r: r, p: p})
	for {
		line, err := br.Line()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			p.note(err)
			return
		}
		if !p.ingest(line, br.LineNo(), nil) {
			return
		}
	}
}

// produceMsgs is the parse stage over an mq delivery channel: each message
// goes through ingest. It returns when msgs closes, ctx is done or the
// pipeline aborts.
func (p *pipeline) produceMsgs(ctx context.Context, msgs <-chan mq.Message) {
	for {
		if len(msgs) == 0 {
			p.sourceIdle() // about to block
		}
		select {
		case <-ctx.Done():
			return
		case <-p.ctx.Done():
			return
		case m, ok := <-msgs:
			if !ok || !p.ingest(m.Body, 0, &m) {
				return
			}
		}
	}
}

// ingest is the parse stage's one step, for a file line and a bus message
// alike: it taps the raw line (malformed ones included, so an event log sees
// the stream as it arrived), samples it for tracing, parses it into a pooled
// event and hands that to its shard, or counts the line malformed. lineNo
// numbers a file's line in a strict error; m is the bus message the line
// came in, nil for a file. It returns false when the parse stage must stop.
func (p *pipeline) ingest(line []byte, lineNo int, m *mq.Message) bool {
	where := func(err error) error {
		if m != nil {
			return err
		}
		return fmt.Errorf("line %d: %w", lineNo, err)
	}
	if p.l.opts.Tap != nil {
		if err := p.l.opts.Tap(line); err != nil {
			// A tap failure is a durability failure, not a data problem:
			// fatal even in lenient mode.
			p.note(where(fmt.Errorf("tap: %w", err)))
			return false
		}
	}
	var id uint64
	var t0 int64
	if trace.Enabled() {
		if id = trace.Sample(line); id != 0 {
			t0 = time.Now().UnixNano()
		}
	}
	// Pooled events flow down the pipeline with ownership: parser → shard,
	// which releases them when it rejects them or after its batch commits.
	ev, err := bp.ParseBytes(line)
	if err != nil {
		p.malformed++
		mMalformed.Inc()
		p.l.rejected.Add(1)
		if p.l.opts.Lenient {
			return true
		}
		p.note(where(err))
		return false
	}
	if id != 0 {
		traceParsed(id, t0, m, ev)
	}
	p.read++
	mRead.Inc()
	if !p.dispatch(ev) {
		// Aborted before handoff: the event never reached a shard, so
		// ownership is still here.
		bp.ReleaseEvent(ev)
		return false
	}
	return true
}

// run is the shard's goroutine: it takes events off the queue and commits
// them in batches — when one is full, when the source runs dry and, as the
// upper bound, on the flush ticker. A failed commit aborts the pipeline but
// not the shard, which goes on to the abort case's drain: every event handed
// to it is applied or counted.
func (sh *pshard) run(p *pipeline) {
	ticker := wfclock.NewTicker(p.l.opts.Clock, p.l.opts.FlushEvery)
	defer ticker.Stop()
	// commit aborts the pipeline when it fails.
	commit := func(reason int) {
		t0 := time.Now()
		worked, err := sh.b.commit(reason)
		if worked {
			d := time.Since(t0)
			sh.b.mFlush.Observe(d.Seconds())
			sh.flushTime += d
			sh.maxFlush = max(sh.maxFlush, d)
		}
		p.fail(err)
	}
	// take handles one receive from the queue: it adds the event to the
	// batch and commits the batch it fills, or drains at end of input. False
	// ends the goroutine.
	take := func(ev *bp.Event, ok bool) bool {
		if !ok {
			commit(commitDrain)
			return false
		}
		sh.mQueueDepth.Set(int64(len(sh.ch)))
		if depth := len(sh.ch) + 1; depth > sh.maxQueue {
			sh.maxQueue = depth
			sh.mQueueHW.SetMax(int64(depth))
		}
		sh.b.buf = append(sh.b.buf, ev)
		if len(sh.b.buf) >= p.l.opts.BatchSize {
			commit(commitFull)
		}
		return true
	}
	for {
		select {
		case <-p.ctx.Done():
			// Aborted: the failure is somewhere else (or was this shard's,
			// already counted), and what is handed to this shard was read
			// and tapped. Commit all of it: the parse stage stops feeding
			// on the same signal, and finish closes the queue once it has,
			// so nothing read goes unaccounted.
			for ev := range sh.ch {
				sh.b.buf = append(sh.b.buf, ev)
			}
			commit(commitDrain)
			return
		case <-ticker.C():
			commit(commitTimer)
		case <-sh.idle:
			for queued := true; queued; {
				select {
				case ev, ok := <-sh.ch:
					if !take(ev, ok) {
						return
					}
				default:
					queued = false
				}
			}
			commit(commitIdle)
		case ev, ok := <-sh.ch:
			if !take(ev, ok) {
				return
			}
		}
	}
}

// finish closes the feed, waits for every stage to drain, flushes the
// archive and aggregates stats. The producer must have returned before
// finish is called.
func (p *pipeline) finish(start time.Time) (Stats, error) {
	for _, sh := range p.shards {
		close(sh.ch)
	}
	p.wg.Wait()
	p.cancel()
	if err := p.l.arch.Flush(); err != nil {
		p.fail(err)
	}
	agg := Stats{Read: p.read, Malformed: p.malformed}
	for _, sh := range p.shards {
		agg.Loaded += sh.b.stats.Loaded
		agg.Invalid += sh.b.stats.Invalid
		agg.Unknown += sh.b.stats.Unknown
		agg.Shards = append(agg.Shards, ShardStats{
			Shard:        sh.idx,
			Applied:      sh.b.stats.Loaded,
			Batches:      sh.b.batches,
			MaxQueue:     sh.maxQueue,
			FlushTime:    sh.flushTime,
			MaxFlushTime: sh.maxFlush,
		})
	}
	agg.Elapsed = time.Since(start)
	p.l.account(agg)
	return agg, p.firstErr()
}
