package loader

import (
	"context"
	"errors"
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

// shardIndex maps a workflow uuid to an apply shard.
func shardIndex(uuid string, shards int) int {
	return archive.StripeFor(uuid) % shards
}

// The pipeline every load runs through: one parse stage (the caller's
// goroutine), then per shard a validate worker feeding a batching applier
// over bounded channels. Events route to shards by hashing xwf.id, so
// every event of one workflow flows through one shard in arrival order —
// the archive's per-workflow ordering contract — while different
// workflows validate and apply concurrently. Bounded channels give backpressure end to end: a
// slow archive fills the apply queue, which blocks the validator, which
// fills the validate queue, which blocks the parser.
//
// The validate worker is paired one-per-shard rather than drawn from a
// free pool on purpose: a free pool could finish two events of the same
// workflow out of order, breaking the ordering guarantee the routing
// exists to provide. With validation disabled the stage is skipped
// entirely — the parser feeds the apply queue directly rather than
// paying a no-op channel hop per event.

type pipeline struct {
	l *Loader
	// ctx is the pipeline's own abort signal, cancelled when a stage
	// fails (fail): the parse stage stops feeding, the validators stop,
	// and each applier commits what it already holds. It is deliberately
	// not the caller's context — whatever stops the parse stage itself (a
	// caller cancelling Consume, a failing Tap, a malformed line in
	// strict mode) stops only the reading, and the stages then drain by
	// channel close as at end of input, so no event already read is
	// dropped.
	ctx    context.Context
	cancel context.CancelFunc
	shards []*pshard
	wg     sync.WaitGroup

	emu sync.Mutex
	err error

	// Parser-owned counters (single producer goroutine).
	read      uint64
	malformed uint64
}

// pshard is one shard's channels, batch buffer and counters. Counter
// fields are single-writer: invalid belongs to the validate goroutine,
// the rest to the apply goroutine; finish() reads them after wg.Wait.
type pshard struct {
	idx        int
	validateCh chan *bp.Event // nil when validation is off
	applyCh    chan *bp.Event
	b          *batch

	invalid   uint64
	maxQueue  int
	batches   uint64
	flushTime time.Duration
	maxFlush  time.Duration

	// Pre-resolved telemetry children (label shard=idx).
	mQueueDepth *telemetry.Gauge
	mQueueHW    *telemetry.Gauge
}

func (l *Loader) newPipeline() *pipeline {
	ctx, cancel := context.WithCancel(context.Background())
	p := &pipeline{l: l, ctx: ctx, cancel: cancel}
	for i := 0; i < l.opts.Shards; i++ {
		sh := &pshard{
			idx:         i,
			applyCh:     make(chan *bp.Event, l.opts.QueueDepth),
			b:           l.newBatch(i),
			mQueueDepth: mShardQueueDepth.With(shardLabel(i)),
			mQueueHW:    mShardQueueHighWater.With(shardLabel(i)),
		}
		p.shards = append(p.shards, sh)
		if l.val != nil {
			sh.validateCh = make(chan *bp.Event, l.opts.QueueDepth)
			p.wg.Add(1)
			go func() { defer p.wg.Done(); sh.runValidate(p) }()
		}
		p.wg.Add(1)
		go func() { defer p.wg.Done(); sh.runApply(p) }()
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

// shardFor routes a parsed event to its shard. It reuses the archive's
// workflow-uuid hash so shard affinity and archive stripe affinity line
// up.
func (p *pipeline) shardFor(ev *bp.Event) *pshard {
	return p.shards[shardIndex(ev.Get(schema.AttrXwfID), len(p.shards))]
}

// dispatch hands an event to its shard, blocking for backpressure. It
// returns false when the pipeline was aborted.
func (p *pipeline) dispatch(ev *bp.Event) bool {
	sh := p.shardFor(ev)
	ch := sh.validateCh
	if ch == nil {
		ch = sh.applyCh
	}
	select {
	case ch <- ev:
		return true
	case <-p.ctx.Done():
		return false
	}
}

// produceReader is the parse stage over an io.Reader source.
func (p *pipeline) produceReader(r io.Reader) {
	br := bp.NewReader(r)
	br.SetLenient(p.l.opts.Lenient)
	// Pooled events flow down the pipeline with ownership: parser →
	// validator → apply shard, which releases them after its batch
	// commits.
	br.SetPooled(true)
	if p.l.opts.Tap != nil {
		br.SetTap(p.l.opts.Tap)
	}
	if trace.Enabled() {
		br.SetSampler(trace.Sample)
	}
	for {
		ev, err := br.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			p.note(err)
			break
		}
		if id, t0 := br.LastSample(); id != 0 {
			traceRead(id, t0, ev)
		}
		p.read++
		mRead.Inc()
		if !p.dispatch(ev) {
			// Aborted before handoff: the event never reached a shard,
			// so ownership is still here.
			bp.ReleaseEvent(ev)
			break
		}
	}
	p.malformed = uint64(br.Skipped())
	mMalformed.Add(p.malformed)
}

// produceMsgs is the parse stage over an mq delivery channel; it returns
// when msgs closes, ctx is done or the pipeline aborts.
func (p *pipeline) produceMsgs(ctx context.Context, msgs <-chan mq.Message) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-p.ctx.Done():
			return
		case m, ok := <-msgs:
			if !ok {
				return
			}
			if p.l.opts.Tap != nil {
				if err := p.l.opts.Tap(m.Body); err != nil {
					p.note(err)
					return
				}
			}
			var id uint64
			var recvNS int64
			if trace.Enabled() {
				if id = trace.Sample(m.Body); id != 0 {
					recvNS = time.Now().UnixNano()
				}
			}
			ev, err := bp.ParseBytes(m.Body)
			if err != nil {
				p.malformed++
				mMalformed.Inc()
				if p.l.opts.Lenient {
					continue
				}
				p.note(err)
				return
			}
			traceConsumed(id, recvNS, m, ev)
			p.read++
			mRead.Inc()
			if !p.dispatch(ev) {
				bp.ReleaseEvent(ev)
				return
			}
		}
	}
}

// runValidate is the shard's validate stage; it exists only when validation
// is on.
func (sh *pshard) runValidate(p *pipeline) {
	defer close(sh.applyCh)
	for {
		select {
		case <-p.ctx.Done():
			return
		case ev, ok := <-sh.validateCh:
			if !ok {
				return
			}
			if err := p.l.val.Validate(ev); err != nil {
				sh.invalid++
				mInvalid.Inc()
				// Rejected events never reach the apply shard, so the
				// validator is their last owner.
				bp.ReleaseEvent(ev)
				if p.l.opts.Lenient {
					continue
				}
				p.fail(err)
				return
			}
			traceValidated(ev)
			select {
			case sh.applyCh <- ev:
			case <-p.ctx.Done():
				return
			}
		}
	}
}

func (sh *pshard) runApply(p *pipeline) {
	ticker := wfclock.NewTicker(p.l.opts.Clock, p.l.opts.FlushEvery)
	defer ticker.Stop()
	flush := func() error {
		if len(sh.b.buf) == 0 {
			return nil
		}
		t0 := time.Now()
		err := sh.b.flush()
		d := time.Since(t0)
		sh.batches++
		sh.flushTime += d
		if d > sh.maxFlush {
			sh.maxFlush = d
		}
		return err
	}
	for {
		select {
		case <-p.ctx.Done():
			// Aborted: commit what was already handed to this shard —
			// it was read, tapped and validated, and the failure is
			// somewhere else.
			for len(sh.applyCh) > 0 {
				sh.b.buf = append(sh.b.buf, <-sh.applyCh)
			}
			p.fail(flush())
			return
		case <-ticker.C():
			if err := flush(); err != nil {
				p.fail(err)
				return
			}
		case ev, ok := <-sh.applyCh:
			if !ok {
				if err := flush(); err != nil {
					p.fail(err)
				}
				return
			}
			sh.mQueueDepth.Set(int64(len(sh.applyCh)))
			if depth := len(sh.applyCh) + 1; depth > sh.maxQueue {
				sh.maxQueue = depth
				sh.mQueueHW.SetMax(int64(depth))
			}
			sh.b.buf = append(sh.b.buf, ev)
			if len(sh.b.buf) >= p.l.opts.BatchSize {
				if err := flush(); err != nil {
					p.fail(err)
					return
				}
			}
		}
	}
}

// finish closes the feed, waits for every stage to drain, flushes the
// archive and aggregates stats. The producer must have returned before
// finish is called.
func (p *pipeline) finish(start time.Time) (Stats, error) {
	for _, sh := range p.shards {
		if sh.validateCh != nil {
			close(sh.validateCh) // runValidate drains, then closes applyCh
		} else {
			close(sh.applyCh)
		}
	}
	p.wg.Wait()
	p.cancel()
	if err := p.l.arch.Flush(); err != nil {
		p.fail(err)
	}
	agg := Stats{Read: p.read, Malformed: p.malformed}
	for _, sh := range p.shards {
		agg.Loaded += sh.b.stats.Loaded
		agg.Invalid += sh.invalid + sh.b.stats.Invalid
		agg.Unknown += sh.b.stats.Unknown
		agg.Shards = append(agg.Shards, ShardStats{
			Shard:        sh.idx,
			Applied:      sh.b.stats.Loaded,
			Batches:      sh.batches,
			MaxQueue:     sh.maxQueue,
			FlushTime:    sh.flushTime,
			MaxFlushTime: sh.maxFlush,
		})
	}
	agg.Elapsed = time.Since(start)
	p.l.account(agg)
	return agg, p.firstErr()
}
