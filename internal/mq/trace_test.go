package mq

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// uniqueLine appends an attribute no other call (or earlier run under
// -count) produces. A trace id is a hash of the line and these tests look
// their spans up in the process-wide ring, so a repeated body would find the
// previous run's spans beside its own.
func uniqueLine(line string) []byte {
	return []byte(fmt.Sprintf("%s test.run=%d", line, time.Now().UnixNano()))
}

// findSpans returns the default ring's spans with the given id and stage.
func findSpans(id uint64, st trace.Stage) []trace.Span {
	var out []trace.Span
	for _, sp := range trace.Default().Spans() {
		if sp.ID == id && sp.Stage == st {
			out = append(out, sp)
		}
	}
	return out
}

// TestWildcardRoutingDwellSpan drives a message through wildcard
// bindings and records the consumer-side route span the way the loader
// does: broker enqueue time (Message.TS) to dequeue. The span must land
// in the ring and cover the time the message sat buffered.
func TestWildcardRoutingDwellSpan(t *testing.T) {
	defer trace.SetSampleEvery(trace.DefaultSampleEvery)
	trace.SetSampleEvery(1)

	b := NewBroker()
	star, err := b.DeclareQueue("star", QueueOpts{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("star", "stampede.job.*.start"); err != nil {
		t.Fatal(err)
	}
	hash, err := b.DeclareQueue("hash", QueueOpts{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("hash", "stampede.#"); err != nil {
		t.Fatal(err)
	}

	body := uniqueLine("ts=2012-03-20T17:44:31.331549Z event=stampede.job.mainjob.start xwf.id=wf-route-test job.id=j1")
	id := trace.Sample(body)
	if id == 0 {
		t.Fatal("rate 1 must sample the line")
	}
	b.Publish("stampede.job.mainjob.start", body)

	// Both wildcard forms must have routed a copy.
	if star.Len() != 1 || hash.Len() != 1 {
		t.Fatalf("star=%d hash=%d buffered, want 1 and 1", star.Len(), hash.Len())
	}

	// Let the message dwell, then consume and record the route span from
	// the broker timestamp — the loader's exact measurement.
	time.Sleep(20 * time.Millisecond)
	for _, q := range []*Queue{star, hash} {
		m := <-q.Consume()
		if got := trace.Sample(m.Body); got != id {
			t.Fatalf("delivered body hashes to %x, want %x (sampling must survive routing)", got, id)
		}
		trace.Record(id, trace.StageRoute, "wf-route-test", m.TS.UnixNano(), time.Now().UnixNano())
	}

	routes := findSpans(id, trace.StageRoute)
	if len(routes) != 2 {
		t.Fatalf("got %d route spans, want 2 (one per wildcard-bound queue)", len(routes))
	}
	for _, sp := range routes {
		dwell := time.Duration(sp.End - sp.Start)
		if dwell < 15*time.Millisecond {
			t.Errorf("route span dwell %v does not cover the 20ms buffer residence", dwell)
		}
		if sp.Label != "wf-route-test" {
			t.Errorf("route span label = %q", sp.Label)
		}
	}
}

// TestDropTombstone overflows a wildcard-bound queue and asserts both
// halves of the drop contract: stampede_mq_dropped_total increments, and
// the sampled casualty leaves a StageDropped tombstone naming the queue.
func TestDropTombstone(t *testing.T) {
	defer trace.SetSampleEvery(trace.DefaultSampleEvery)
	trace.SetSampleEvery(1)

	before := scrapeDropped(t)

	b := NewBroker()
	q, err := b.DeclareQueue("tiny", QueueOpts{Durable: true, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("tiny", "#"); err != nil {
		t.Fatal(err)
	}

	kept := uniqueLine("ts=2012-03-20T17:44:31Z event=stampede.job.mainjob.start xwf.id=wf-drop job.id=keep")
	lost := uniqueLine("ts=2012-03-20T17:44:32Z event=stampede.job.mainjob.end xwf.id=wf-drop job.id=lose")
	b.Publish("stampede.job.mainjob.start", kept)
	b.Publish("stampede.job.mainjob.end", lost)

	if got := q.Dropped(); got != 1 {
		t.Fatalf("queue dropped %d, want 1", got)
	}
	if got := scrapeDropped(t); got != before+1 {
		t.Fatalf("stampede_mq_dropped_total went %d -> %d, want +1", before, got)
	}

	lostID := trace.Sample(lost)
	tombs := findSpans(lostID, trace.StageDropped)
	if len(tombs) != 1 {
		t.Fatalf("got %d tombstone spans for the dropped message, want 1", len(tombs))
	}
	if tombs[0].Label != "tiny" {
		t.Errorf("tombstone names queue %q, want %q", tombs[0].Label, "tiny")
	}
	// The survivor must NOT have a tombstone.
	if n := len(findSpans(trace.Sample(kept), trace.StageDropped)); n != 0 {
		t.Errorf("kept message has %d tombstones", n)
	}
}

// scrapeDropped reads stampede_mq_dropped_total from the process-wide
// exposition, verifying the metric the dashboards scrape, not a test
// double.
func scrapeDropped(t *testing.T) uint64 {
	t.Helper()
	var b strings.Builder
	if err := telemetry.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "stampede_mq_dropped_total "); ok {
			var n uint64
			for _, c := range v {
				if c < '0' || c > '9' {
					break
				}
				n = n*10 + uint64(c-'0')
			}
			return n
		}
	}
	t.Fatal("stampede_mq_dropped_total not in exposition")
	return 0
}
