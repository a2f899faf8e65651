package mq

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBrokerRoutesByBinding(t *testing.T) {
	b := NewBroker()
	jobs, err := b.DeclareQueue("jobs", QueueOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("jobs", "stampede.job_inst.#"); err != nil {
		t.Fatal(err)
	}
	all, err := b.DeclareQueue("all", QueueOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("all", "stampede.#"); err != nil {
		t.Fatal(err)
	}

	b.Publish("stampede.job_inst.main.start", []byte("m1"))
	b.Publish("stampede.xwf.start", []byte("m2"))
	b.Publish("other.event", []byte("m3"))

	if got := jobs.Len(); got != 1 {
		t.Errorf("jobs queue has %d messages, want 1", got)
	}
	if got := all.Len(); got != 2 {
		t.Errorf("all queue has %d messages, want 2", got)
	}
	st := b.Stats()
	if st.Published != 3 || st.Routed != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBrokerDuplicateBindingSingleCopy(t *testing.T) {
	b := NewBroker()
	q, _ := b.DeclareQueue("q", QueueOpts{})
	_ = b.Bind("q", "a.#")
	_ = b.Bind("q", "a.#") // duplicate collapses
	_ = b.Bind("q", "a.b") // overlapping pattern still one copy per message
	b.Publish("a.b", []byte("x"))
	if got := q.Len(); got != 1 {
		t.Fatalf("queue has %d copies, want 1", got)
	}
}

func TestQueueOverflowDropsAndCounts(t *testing.T) {
	b := NewBroker()
	q, _ := b.DeclareQueue("small", QueueOpts{Capacity: 2})
	_ = b.Bind("small", "#")
	for i := 0; i < 5; i++ {
		b.Publish("k", []byte{byte(i)})
	}
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2", q.Len())
	}
	if q.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", q.Dropped())
	}
	if st := b.Stats(); st.Dropped != 3 {
		t.Errorf("Stats.Dropped = %d, want 3", st.Dropped)
	}
	// Deleting the queue must not lose its drop count.
	b.DeleteQueue("small")
	if st := b.Stats(); st.Dropped != 3 {
		t.Errorf("Stats.Dropped after delete = %d, want 3", st.Dropped)
	}
}

func TestDeclareQueueConflicts(t *testing.T) {
	b := NewBroker()
	if _, err := b.DeclareQueue("", QueueOpts{}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := b.DeclareQueue("q", QueueOpts{Durable: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DeclareQueue("q", QueueOpts{Durable: true}); err != nil {
		t.Errorf("idempotent redeclare failed: %v", err)
	}
	if _, err := b.DeclareQueue("q", QueueOpts{Durable: false}); err == nil {
		t.Error("conflicting redeclare accepted")
	}
	if err := b.Bind("ghost", "#"); err == nil {
		t.Error("bind to undeclared queue accepted")
	}
}

func TestTransientQueueDeletedOnLastCancel(t *testing.T) {
	b := NewBroker()
	q, _ := b.Subscribe("stampede.#")
	name := q.Name()
	ch := q.Consume() // second consumer
	q.Cancel()        // Subscribe itself did not Consume; this cancels ours
	// After the last cancel the queue should vanish and the channel close.
	b.Publish("stampede.x", []byte("late"))
	select {
	case _, ok := <-ch:
		if ok {
			// The pre-cancel publish may have landed; drain until close.
			for range ch {
			}
		}
	case <-time.After(time.Second):
		t.Fatal("channel not closed after queue deletion")
	}
	if _, err := b.DeclareQueue(name, QueueOpts{Durable: true}); err != nil {
		t.Fatalf("queue name not released: %v", err)
	}
}

func TestDurableQueueSurvivesCancel(t *testing.T) {
	b := NewBroker()
	q, _ := b.DeclareQueue("keep", QueueOpts{Durable: true})
	_ = b.Bind("keep", "#")
	q.Consume()
	q.Cancel()
	b.Publish("k", []byte("still here"))
	if q.Len() != 1 {
		t.Fatalf("durable queue lost message after cancel")
	}
}

func TestCompetingConsumersPartitionMessages(t *testing.T) {
	b := NewBroker()
	q, _ := b.DeclareQueue("work", QueueOpts{})
	_ = b.Bind("work", "#")
	const n = 200
	var mu sync.Mutex
	got := make(map[string]bool)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch := q.Consume()
			for m := range ch {
				mu.Lock()
				if got[string(m.Body)] {
					t.Errorf("message %q delivered twice", m.Body)
				}
				got[string(m.Body)] = true
				done := len(got) == n
				mu.Unlock()
				if done {
					b.DeleteQueue("work")
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		b.Publish("k", []byte(fmt.Sprintf("m%03d", i)))
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("delivered %d distinct messages, want %d", len(got), n)
	}
}

func TestPublishConcurrentSafe(t *testing.T) {
	b := NewBroker()
	q, _ := b.DeclareQueue("q", QueueOpts{Capacity: 100000})
	_ = b.Bind("q", "stampede.#")
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Publish("stampede.inv.end", []byte("x"))
			}
		}()
	}
	wg.Wait()
	if got := q.Len(); got != workers*per {
		t.Fatalf("queued %d, want %d", got, workers*per)
	}
}

func TestDeleteQueueIdempotent(t *testing.T) {
	b := NewBroker()
	_, _ = b.DeclareQueue("q", QueueOpts{})
	b.DeleteQueue("q")
	b.DeleteQueue("q") // second delete must not panic
	b.DeleteQueue("never-existed")
}

var subSeq atomic.Uint64

// Subscribe is the convenience path for a single consumer: it declares a
// transient uniquely-suffixed queue, binds it to the pattern, and returns
// the queue. Callers use q.Consume() for the channel and q.Cancel() when
// done.
func (b *Broker) Subscribe(pattern string) (*Queue, error) {
	name := fmt.Sprintf("sub-%d", subSeq.Add(1))
	q, err := b.DeclareQueue(name, QueueOpts{})
	if err != nil {
		return nil, err
	}
	if err := b.Bind(name, pattern); err != nil {
		return nil, err
	}
	return q, nil
}
