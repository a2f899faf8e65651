package mq

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Message is one routed payload: the routing key (the BP event type), the
// body (one BP-formatted line) and the broker-side enqueue time.
type Message struct {
	Key  string
	Body []byte
	TS   time.Time
}

// DefaultQueueCapacity bounds a queue's buffer when QueueOpts.Capacity is
// zero. Publishing never blocks: beyond capacity, the newest message is
// dropped and counted, the trade the paper's architecture makes to keep
// producers (workflow engines) unaffected by slow consumers.
const DefaultQueueCapacity = 65536

// QueueOpts configures a declared queue.
type QueueOpts struct {
	// Durable queues survive their last consumer going away; transient
	// queues are deleted when the final subscription is cancelled.
	Durable bool
	// Capacity bounds buffered messages; 0 means DefaultQueueCapacity.
	Capacity int
}

// Queue is a named buffer bound to one or more topic patterns. Multiple
// consumers on one queue compete for messages (AMQP queue semantics);
// multiple queues bound to the same pattern each get a copy.
type Queue struct {
	name    string
	broker  *Broker
	ch      chan Message
	opts    QueueOpts
	mu      sync.Mutex
	subs    int
	dropped uint64
	closed  bool
}

// Name returns the queue's declared name.
func (q *Queue) Name() string { return q.name }

// Dropped reports how many messages were discarded because the queue was
// full.
func (q *Queue) Dropped() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

// Consume registers a consumer and returns the shared delivery channel.
// The channel is closed when the queue is deleted.
func (q *Queue) Consume() <-chan Message {
	q.mu.Lock()
	q.subs++
	q.mu.Unlock()
	return q.ch
}

// Cancel unregisters one consumer. Transient queues are deleted when the
// last consumer cancels.
func (q *Queue) Cancel() {
	q.mu.Lock()
	if q.subs > 0 {
		q.subs--
	}
	lastGone := q.subs == 0 && !q.opts.Durable
	q.mu.Unlock()
	if lastGone {
		q.broker.DeleteQueue(q.name)
	}
}

// offer enqueues without blocking, dropping on overflow. The closed check
// and the channel send happen under one critical section: releasing the
// lock between them would let a concurrent DeleteQueue close the channel
// and turn the send into a panic. The send itself is non-blocking, so
// holding the lock across it never stalls a publisher.
func (q *Queue) offer(m Message) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	select {
	case q.ch <- m:
	default:
		q.dropped++
		mDropped.Inc()
		// Tombstone for the tracing layer: a sampled event whose copy
		// dies here gets a terminal span naming the queue, instead of a
		// trace that silently never completes.
		trace.Drop(q.name, m.Body, m.TS)
	}
}

// Len returns the number of currently buffered messages.
func (q *Queue) Len() int { return len(q.ch) }

// Broker is an in-process topic exchange: queues declare bindings, and
// Publish copies each message to every queue with a matching binding.
// Traffic counters are atomics so the publish hot path bumps them without
// re-acquiring the broker lock.
type Broker struct {
	mu       sync.RWMutex
	queues   map[string]*Queue
	bindings map[string][]string // queue name -> patterns (source of truth)

	// Routing index, derived from bindings whenever they change. Literal
	// patterns (no '*'/'#' word) land in exact — a straight map hit per
	// publish, so 10k single-workflow subscribers cost O(1) routing, not a
	// scan. Queues with wildcard patterns keep their patterns pre-split in
	// wild, so the scan re-splits neither pattern nor key. Both structures
	// are rebuilt fresh (never mutated in place) so Publish may snapshot
	// them under RLock and deliver after releasing it.
	exact map[string][]*Queue
	wild  []wildBind

	published   atomic.Uint64
	routed      atomic.Uint64
	droppedGone atomic.Uint64 // drops inherited from deleted queues
}

// wildBind is one queue's wildcard bindings, patterns pre-split.
type wildBind struct {
	q    *Queue
	pats [][]string
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{
		queues:   make(map[string]*Queue),
		bindings: make(map[string][]string),
		exact:    make(map[string][]*Queue),
	}
}

// isWildcard reports whether a pattern needs the matcher. A pattern is
// literal only when it contains no '*' or '#' at all; a word merely
// containing one (not valid AMQP anyway) is conservatively routed
// through the matcher, which treats it as a literal word — so over-
// classification costs a scan entry, never a missed route.
func isWildcard(pattern string) bool { return strings.ContainsAny(pattern, "*#") }

// addBinding indexes one new (queue, pattern) pair. Caller holds b.mu.
// Exact lists grow by in-place append: a concurrent Publish snapshotted
// the slice header under RLock with the old length, so the new element is
// invisible to it rather than racy. The wild slice is copied on write
// because extending an existing entry's pattern list would mutate a
// struct a reader is walking.
func (b *Broker) addBinding(q *Queue, pattern string) {
	if !isWildcard(pattern) {
		b.exact[pattern] = append(b.exact[pattern], q)
		return
	}
	nw := make([]wildBind, 0, len(b.wild)+1)
	replaced := false
	for _, w := range b.wild {
		if w.q == q {
			np := make([][]string, 0, len(w.pats)+1)
			np = append(np, w.pats...)
			np = append(np, splitTopic(pattern))
			w = wildBind{q: q, pats: np}
			replaced = true
		}
		nw = append(nw, w)
	}
	if !replaced {
		nw = append(nw, wildBind{q: q, pats: [][]string{splitTopic(pattern)}})
	}
	b.wild = nw
}

// dropBindings unindexes a deleted queue's patterns. Caller holds b.mu.
// Filtered lists are fresh copies for the same snapshot-under-RLock
// reason addBinding copies the wild slice.
func (b *Broker) dropBindings(q *Queue, pats []string) {
	hasWild := false
	for _, p := range pats {
		if isWildcard(p) {
			hasWild = true
			continue
		}
		old := b.exact[p]
		kept := make([]*Queue, 0, len(old))
		for _, eq := range old {
			if eq != q {
				kept = append(kept, eq)
			}
		}
		if len(kept) == 0 {
			delete(b.exact, p)
		} else {
			b.exact[p] = kept
		}
	}
	if hasWild {
		kept := make([]wildBind, 0, len(b.wild))
		for _, w := range b.wild {
			if w.q != q {
				kept = append(kept, w)
			}
		}
		b.wild = kept
	}
}

// appendSplit splits s on '.' into buf, with splitTopic's semantics
// ("" yields no words, "a." yields ["a",""]), allocating only if the
// word count outgrows buf's capacity.
func appendSplit(buf []string, s string) []string {
	if s == "" {
		return buf
	}
	for {
		i := strings.IndexByte(s, '.')
		if i < 0 {
			return append(buf, s)
		}
		buf = append(buf, s[:i])
		s = s[i+1:]
	}
}

// DeclareQueue creates the queue if it does not exist, or returns the
// existing one. Re-declaring with different options is an error, matching
// AMQP's precondition-failed behaviour.
func (b *Broker) DeclareQueue(name string, opts QueueOpts) (*Queue, error) {
	if name == "" {
		return nil, errors.New("mq: queue name must be non-empty")
	}
	if opts.Capacity == 0 {
		opts.Capacity = DefaultQueueCapacity
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if q, ok := b.queues[name]; ok {
		if q.opts != opts {
			return nil, fmt.Errorf("mq: queue %q exists with different options", name)
		}
		return q, nil
	}
	q := &Queue{name: name, broker: b, opts: opts, ch: make(chan Message, opts.Capacity)}
	b.queues[name] = q
	// len() on a buffered channel is safe concurrently (and after close),
	// so depth is sampled live at scrape time instead of on every offer.
	mQueueDepth.SetFunc(func() float64 { return float64(len(q.ch)) }, name)
	return q, nil
}

// Bind routes messages whose key matches pattern to the named queue.
// Duplicate bindings are collapsed.
func (b *Broker) Bind(queueName, pattern string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.queues[queueName]; !ok {
		return fmt.Errorf("mq: bind to undeclared queue %q", queueName)
	}
	for _, p := range b.bindings[queueName] {
		if p == pattern {
			return nil
		}
	}
	b.bindings[queueName] = append(b.bindings[queueName], pattern)
	b.addBinding(b.queues[queueName], pattern)
	return nil
}

// DeleteQueue removes the queue and its bindings and closes its delivery
// channel. Deleting an unknown queue is a no-op.
func (b *Broker) DeleteQueue(name string) {
	b.mu.Lock()
	q, ok := b.queues[name]
	if ok {
		delete(b.queues, name)
		if pats, bound := b.bindings[name]; bound {
			delete(b.bindings, name)
			b.dropBindings(q, pats)
		}
	}
	b.mu.Unlock()
	if ok {
		q.mu.Lock()
		alreadyClosed := q.closed
		q.closed = true
		drops := q.dropped
		q.mu.Unlock()
		// The queue leaves the map, so fold its drop count into the
		// broker-lifetime total Stats reports.
		b.droppedGone.Add(drops)
		mQueueDepth.Delete(name)
		if !alreadyClosed {
			close(q.ch)
		}
	}
}

// Publish routes one message to every queue with a matching binding — at
// most one copy per queue, however many of its patterns match. It never
// blocks; full queues drop and count. Routing snapshots the index under
// RLock and delivers after releasing it: literal bindings are a single
// map hit, wildcard bindings a pre-split scan with no allocation.
func (b *Broker) Publish(key string, body []byte) {
	m := Message{Key: key, Body: body, TS: time.Now()}
	b.mu.RLock()
	exact := b.exact[key]
	wild := b.wild
	b.mu.RUnlock()
	b.published.Add(1)
	mPublished.Inc()
	routed := 0
	for _, q := range exact {
		q.offer(m)
		routed++
	}
	if len(wild) > 0 {
		var kbuf [8]string
		kw := appendSplit(kbuf[:0], key)
	scan:
		for i := range wild {
			w := &wild[i]
			// A queue holding both a matching literal and a wildcard
			// binding already got its copy above.
			for _, eq := range exact {
				if eq == w.q {
					continue scan
				}
			}
			for _, p := range w.pats {
				if matchWords(p, kw) {
					w.q.offer(m)
					routed++
					break
				}
			}
		}
	}
	b.routed.Add(uint64(routed))
	mRouted.Add(uint64(routed))
}

// Stats summarises broker traffic.
type Stats struct {
	Published uint64 // messages accepted from producers
	Routed    uint64 // message copies delivered to queues
	Dropped   uint64 // copies discarded on full queues, incl. queues since deleted
	Queues    int
}

// Stats returns a snapshot of the broker's counters. Dropped aggregates
// every queue's overflow count (plus deleted queues'), so drop visibility
// no longer requires holding a *Queue.
func (b *Broker) Stats() Stats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	dropped := b.droppedGone.Load()
	for _, q := range b.queues {
		dropped += q.Dropped()
	}
	return Stats{
		Published: b.published.Load(),
		Routed:    b.routed.Load(),
		Dropped:   dropped,
		Queues:    len(b.queues),
	}
}

// Backlog returns the total number of messages currently buffered across
// every queue — the broker-wide depth the health engine samples at tick
// time as an SLO signal.
func (b *Broker) Backlog() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	depth := 0
	for _, q := range b.queues {
		depth += q.Len()
	}
	return depth
}
