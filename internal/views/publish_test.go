package views_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bp"
	"repro/internal/views"
	"repro/internal/wfclock"
)

// The publisher's pacing, on a Manual clock and without a sleep: a flush
// that must happen is waited for on the broadcast subscription (one
// message is one flush), one that must not have happened is shown by the
// next flush still carrying the workflow it would have taken.

var pubEpoch = time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC)

type publisher struct {
	t   *testing.T
	clk *wfclock.Manual
	v   *views.Views
	sub *views.Sub
	inv int64
}

func newPublisher(t *testing.T, every time.Duration) *publisher {
	clk := wfclock.NewManual(pubEpoch)
	v := views.New(views.Options{Clock: clk, FlushEvery: every, QueueCapacity: 64})
	t.Cleanup(v.Close)
	sub, err := v.Subscribe("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	return &publisher{t: t, clk: clk, v: v, sub: sub}
}

// dirty makes one workflow dirty.
func (p *publisher) dirty(uuid string) {
	p.inv++
	p.v.ObserveBatch([]*bp.Event{invEnd(uuid, pubEpoch, p.inv, 1)})
}

// flush waits for the next flush and checks it carries exactly the named
// workflows. The timeout only turns a hang into a failure.
func (p *publisher) flush(want ...string) {
	p.t.Helper()
	select {
	case m := <-p.sub.C():
		frame := string(m.Body)
		if n := strings.Count(frame, "event: delta"); n != len(want) {
			p.t.Fatalf("flush carries %d deltas, want %v: %q", n, want, frame)
		}
		for _, uuid := range want {
			if !strings.Contains(frame, `"uuid":"`+uuid+`"`) {
				p.t.Fatalf("flush lacks %s — it was published earlier than its bound: %q", uuid, frame)
			}
		}
	case <-time.After(10 * time.Second):
		p.t.Fatalf("no flush carrying %v", want)
	}
}

// quiet gives the publisher every chance to run and checks it published
// nothing. It can miss a flush that comes late, never report one wrongly;
// the flush that follows is the exact check.
func (p *publisher) quiet() {
	p.t.Helper()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	if n := len(p.sub.C()); n != 0 {
		p.t.Fatalf("%d flushes before the interval was over", n)
	}
}

// TestFirstDirtyPublishedAtOnce: after a quiet interval the first workflow
// to go dirty is on the wire with no clock advance; the next one inside
// the interval waits for the bound, and gets it exactly.
func TestFirstDirtyPublishedAtOnce(t *testing.T) {
	p := newPublisher(t, time.Second)
	p.dirty("wf-a")
	p.flush("wf-a")

	p.dirty("wf-b")
	p.clk.Advance(time.Second - time.Nanosecond)
	p.quiet()
	p.dirty("wf-c")
	p.clk.Advance(time.Nanosecond)
	p.flush("wf-b", "wf-c")

	// An interval with nothing to publish, and the publisher is prompt
	// again.
	p.clk.Advance(time.Second)
	p.quiet()
	p.clk.Advance(10 * time.Second)
	p.dirty("wf-d")
	p.flush("wf-d")
}

// TestContinuousDirtFlushesEveryInterval is the skipped-tick regression:
// N intervals of continuous dirt are N flushes, one per interval, not one
// per two.
func TestContinuousDirtFlushesEveryInterval(t *testing.T) {
	const every = 200 * time.Millisecond
	p := newPublisher(t, every)
	p.dirty("wf-0")
	p.flush("wf-0")
	for i := 1; i <= 20; i++ {
		uuid := fmt.Sprintf("wf-%d", i)
		p.dirty(uuid)
		p.clk.Advance(every / 2)
		p.quiet()
		p.clk.Advance(every / 2)
		p.flush(uuid)
	}
	p.quiet()
}

// TestFanOutStretchesSpacing: with 2,000 subscribers the paced interval is
// FlushEvery × (1 + 2000/1000), so dirt waits three ticks, not one, and
// costs one flush.
func TestFanOutStretchesSpacing(t *testing.T) {
	const every = time.Second
	p := newPublisher(t, every)
	for i := 0; i < 2000; i++ {
		sub, err := p.v.Subscribe("nobody")
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
	}
	p.dirty("wf-a")
	p.flush("wf-a")
	for _, uuid := range []string{"wf-b", "wf-c", "wf-d"} {
		p.quiet()
		p.dirty(uuid)
		p.clk.Advance(every)
	}
	p.flush("wf-b", "wf-c", "wf-d")
}
