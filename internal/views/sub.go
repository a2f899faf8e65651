package views

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/mq"
)

// Message is one published delta or alert: the routing key decides the
// SSE event name, the body is the pre-marshalled JSON payload shared by
// every subscriber.
type Message = mq.Message

// Sub is one bounded-buffer subscription to the delta bus. A full buffer
// drops deltas (deltas are full-state, so the cost is freshness only);
// TakeDropped reports drops since the last call so the SSE layer knows
// when to serve a resync snapshot.
type Sub struct {
	v    *Views
	uuid string // "" for the broadcast stream
	q    *mq.Queue
	ch   <-chan mq.Message
	mu   sync.Mutex
	prev uint64 // q.Dropped() high-water at the last TakeDropped
	once sync.Once
}

// Subscribe opens a subscription: uuid == "" streams every workflow's
// deltas and alerts via the BatchTopic broadcast (one pre-framed message
// per flush tick); a non-empty uuid streams exactly that workflow. All
// bindings are literal, so the broker routes every publish through its
// exact-match index — 10k subscribers cost 10k queue offers per flush,
// never a per-delta wildcard scan. The subscription is counted where the
// publisher looks: broadcast ones stretch its rest (restAfter), a
// per-workflow one makes flushes publish that workflow on its own topic.
// It is counted once bound and before Subscribe returns, so a state the
// subscriber was not sent is in any snapshot it takes afterwards.
func (v *Views) Subscribe(uuid string) (*Sub, error) {
	name := fmt.Sprintf("views-sub-%d", v.subSeq.Add(1))
	q, err := v.bus.DeclareQueue(name, mq.QueueOpts{Capacity: v.opts.QueueCapacity})
	if err != nil {
		return nil, err
	}
	var pats []string
	if uuid == "" {
		pats = []string{BatchTopic}
	} else {
		pats = []string{"views.wf." + uuid, "views.alert." + uuid}
	}
	for _, p := range pats {
		if err := v.bus.Bind(name, p); err != nil {
			v.bus.DeleteQueue(name)
			return nil, err
		}
	}
	s := &Sub{v: v, uuid: uuid, q: q, ch: q.Consume()}
	s.count(1)
	return s, nil
}

// count adds the subscription to (or, with -1, takes it from) the
// publisher's accounting.
func (s *Sub) count(d int) {
	v := s.v
	v.nsubs.Add(int64(d))
	mSubscribers.Add(int64(d))
	if s.uuid == "" {
		v.nbcast.Add(int64(d))
		return
	}
	st := v.stripeFor(s.uuid)
	st.mu.Lock()
	if st.subs[s.uuid] += d; st.subs[s.uuid] == 0 {
		delete(st.subs, s.uuid)
	}
	st.mu.Unlock()
}

// C is the delivery channel; closed when the subscription is closed.
func (s *Sub) C() <-chan mq.Message { return s.ch }

// TakeDropped returns how many deltas were dropped on this subscription's
// full buffer since the previous call, folding them into the global
// counter. A non-zero return means the consumer fell behind and should
// resync from the view snapshot.
func (s *Sub) TakeDropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.q.Dropped()
	delta := d - s.prev
	s.prev = d
	if delta > 0 {
		mDroppedDeltas.Add(delta)
	}
	return delta
}

// Close tears the subscription down; the delivery channel closes.
func (s *Sub) Close() {
	s.once.Do(func() {
		s.TakeDropped()
		s.q.Cancel() // transient queue: last cancel deletes it
		s.count(-1)
	})
}

// EventName maps a per-workflow routing key to its SSE event name.
// BatchTopic messages are not framed through this: their bodies are
// already SSE wire bytes and must be written verbatim.
func EventName(key string) string {
	if strings.HasPrefix(key, "views.alert.") {
		return "alert"
	}
	return "delta"
}
