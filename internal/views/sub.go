package views

import (
	"context"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ringLen is how many recent frames a log keeps: a subscriber may fall this
// many flushes behind (at least 640 ms at the floor rest) before it is
// resynced. It is a variable only so tests can shrink it.
var ringLen = 64

// frameLog is an append-only log of sealed SSE frames, of which the last
// ringLen are kept. A frame is appended once, however many subscribers
// read it, and waiters are woken with one broadcast: the wake channel is
// closed and replaced. The broadcast stream has one log in the Views; each
// workflow somebody subscribed to has one in its stripe while it is bound.
type frameLog struct {
	mu     sync.Mutex
	frames [][]byte // frame seq lives at frames[seq % ringLen]
	next   uint64   // seq of the next frame appended
	wake   chan struct{}
	subs   int // subscribers reading the log
}

func newFrameLog() *frameLog {
	return &frameLog{frames: make([][]byte, ringLen), wake: make(chan struct{})}
}

// append seals frame into the log, wakes every waiter and returns how many
// subscribers the frame reaches. The frame must not change afterwards.
func (l *frameLog) append(frame []byte) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.subs == 0 {
		frame = nil // a subscriber joining later starts past it: unwatched, the log holds nothing
	}
	l.frames[l.next%uint64(len(l.frames))] = frame
	l.next++
	close(l.wake)
	l.wake = make(chan struct{})
	return l.subs
}

// at returns frame seq — nil when seq is the log's next (nothing new yet) or
// has fallen off the ring — with the next seq and the channel closed when
// that is appended.
func (l *frameLog) at(seq uint64) ([]byte, uint64, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq >= l.next || l.next-seq > uint64(len(l.frames)) {
		return nil, l.next, l.wake
	}
	return l.frames[seq%uint64(len(l.frames))], l.next, l.wake
}

// join adds d readers to the log and returns its next seq and how many
// read it now.
func (l *frameLog) join(d int) (uint64, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.subs += d
	return l.next, l.subs
}

// Sub is one subscription: a cursor into a frame log. The SSE layer writes
// the snapshot, then loops Wait → WriteTo → flush.
type Sub struct {
	v      *Views
	uuid   string // "" for the broadcast stream
	log    *frameLog
	next   uint64    // seq of the first frame not yet written
	wokeAt time.Time // when Wait last returned, zero once WriteTo has timed it
	once   sync.Once
}

// Subscribe opens a subscription: uuid == "" streams every flush's frame
// (every workflow's deltas and alerts, and out-of-band frames); a non-empty
// uuid streams exactly that workflow's deltas and alerts. The cursor starts
// at the log's end before Subscribe returns, so a state the subscriber is
// not sent is in any snapshot it takes afterwards.
func (v *Views) Subscribe(uuid string) *Sub {
	s := &Sub{v: v, uuid: uuid, log: v.log}
	if uuid != "" {
		st := v.stripeFor(uuid)
		st.mu.Lock()
		defer st.mu.Unlock()
		if s.log = st.subs[uuid]; s.log == nil {
			s.log = newFrameLog()
			st.subs[uuid] = s.log
		}
	}
	s.next, _ = s.log.join(1)
	v.nsubs.Add(1)
	mSubscribers.Add(1)
	return s
}

// Wait blocks until a frame past the cursor has been appended and reports
// true, or until ctx is done with none pending and reports false.
func (s *Sub) Wait(ctx context.Context) bool {
	for {
		_, next, wake := s.log.at(s.next)
		if next != s.next {
			s.wokeAt = s.v.clock.Now()
			return true
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return false
		}
	}
}

// WriteTo writes every frame past the cursor to w, verbatim. A cursor that
// fell off the ring is first made whole with a "resync" event carrying a
// fresh snapshot (deltas are full-state, so the frames it missed cost only
// freshness; they are counted as dropped). The time from Wait's return to
// here is what delivering to this subscriber cost, and paces the publisher.
func (s *Sub) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for {
		f, next, _ := s.log.at(s.next)
		switch {
		case f != nil:
			s.next++
		case s.next != next:
			mDroppedDeltas.Add(next - s.next)
			mResyncs.Inc()
			s.next = next
			f = append(s.v.AppendSnapshot([]byte("event: resync\ndata: "), s.uuid), "\n\n"...)
		}
		if f == nil {
			break
		}
		m, err := w.Write(f)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	if !s.wokeAt.IsZero() {
		s.v.deliveries.note(s.v.clock.Since(s.wokeAt))
		s.wokeAt = time.Time{}
	}
	return n, nil
}

// Close ends the subscription; a workflow's log goes with its last reader.
func (s *Sub) Close() {
	s.once.Do(func() {
		var st *vstripe
		if s.uuid != "" {
			st = s.v.stripeFor(s.uuid)
			st.mu.Lock()
			defer st.mu.Unlock()
		}
		if _, left := s.log.join(-1); left == 0 && st != nil {
			delete(st.subs, s.uuid)
		}
		s.v.nsubs.Add(-1)
		mSubscribers.Add(-1)
	})
}

// costSamples is how many of the latest deliveries the per-subscriber cost
// is the median of: a client stalled on a full socket is one subscriber
// among the rest, not what each of them is charged.
const costSamples = 64

// deliveryCosts keeps the last costSamples wake-to-written times.
type deliveryCosts struct {
	n  atomic.Uint64
	ns [costSamples]atomic.Int64
}

func (d *deliveryCosts) note(t time.Duration) {
	d.ns[(d.n.Add(1)-1)%costSamples].Store(int64(t))
}

// perSubscriber is the median of the recent deliveries (0 before any).
func (d *deliveryCosts) perSubscriber() time.Duration {
	var buf [costSamples]int64
	s := buf[:min(d.n.Load(), costSamples)]
	if len(s) == 0 {
		return 0
	}
	for i := range s {
		s[i] = d.ns[i].Load()
	}
	slices.Sort(s)
	return time.Duration(s[len(s)/2])
}
