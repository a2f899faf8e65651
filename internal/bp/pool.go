package bp

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event pooling for the ingest hot path. ParseBytes (and Reader in pooled
// mode) draws Event structs and their Attrs backing arrays from a
// process-wide sync.Pool; the loader returns them with ReleaseEvent once
// the apply shard has committed the batch they rode in.
//
// Ownership rules:
//
//   - A pooled event is owned by exactly one goroutine at a time; the
//     pipeline hands ownership along with the pointer (parse stage →
//     validator → apply shard).
//   - After ReleaseEvent the pointer must not be touched; the struct and
//     its Attrs slice will be rewritten by an unrelated parse.
//   - The event's strings (Type, attr keys and values) are immutable and
//     GC-managed — they are never recycled. Code that extracts strings
//     (the archive folding values into rows) may retain them past the
//     event's release with no copy.
//   - Retaining the *Event itself past release requires Clone, which
//     escapes the pool by deep-copying into GC-managed memory.
//
// ReleaseEvent accepts any event, pooled or not; releasing is always an
// ownership assertion, never a type distinction.

var eventPool = sync.Pool{New: func() any {
	poolMisses.Add(1)
	return new(Event)
}}

var (
	poolGets   atomic.Uint64
	poolMisses atomic.Uint64
	poolPuts   atomic.Uint64
)

// attrsKeepCap bounds the Attrs capacity a released event may carry back
// into the pool, so one pathological wide event cannot pin a large array
// forever.
const attrsKeepCap = 64

// GetEvent returns an empty event from the pool. See the ownership rules
// above; pair it with ReleaseEvent.
func GetEvent() *Event {
	poolGets.Add(1)
	return eventPool.Get().(*Event)
}

// ReleaseEvent resets e and returns it to the pool. The caller must not
// use e afterwards. Nil is tolerated.
func ReleaseEvent(e *Event) {
	if e == nil {
		return
	}
	e.TS = time.Time{}
	e.Type = ""
	e.TraceID = 0
	e.TraceNS = 0
	if cap(e.Attrs) > attrsKeepCap {
		e.Attrs = nil
	} else {
		e.Attrs = e.Attrs[:0]
	}
	poolPuts.Add(1)
	eventPool.Put(e)
}

// PoolStats reports cumulative event-pool traffic: gets that were served
// by recycling (hits), gets that had to allocate (misses), and events
// returned. The loader exposes these as telemetry gauges.
func PoolStats() (hits, misses, returns uint64) {
	g, m, p := poolGets.Load(), poolMisses.Load(), poolPuts.Load()
	if g < m {
		g = m
	}
	return g - m, m, p
}

// linePool holds the scratch lines WithLine encodes into.
var linePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// lineKeepCap bounds the scratch a pathological wide event may carry back
// into the pool, as attrsKeepCap does for Attrs.
const lineKeepCap = 64 << 10

// WithLine encodes e into pooled scratch and calls fn with the line (no
// trailing newline). The slice is valid only for the call: fn must copy
// whatever it keeps. An emitter whose sink copies the bytes (a buffered
// frame writer) publishes through it without allocating.
func (e *Event) WithLine(fn func(line []byte) error) error {
	p := linePool.Get().(*[]byte)
	*p = e.AppendFormat((*p)[:0])
	err := fn(*p)
	if cap(*p) <= lineKeepCap {
		linePool.Put(p)
	}
	return err
}
