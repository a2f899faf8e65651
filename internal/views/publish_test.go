package views_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bp"
	"repro/internal/telemetry"
	"repro/internal/views"
	"repro/internal/wfclock"
)

// The publisher's pacing, on a Manual clock and without a sleep: a flush
// that must happen is waited for on the broadcast subscription (one
// message is one flush), one that must not have happened is shown by the
// next flush still carrying the workflow it would have taken. A Manual
// clock does not move inside a flush, so every flush here costs nothing and
// the rest that follows it is restAfter(0, subscribers); what a flush that
// does cost is followed by is TestRestAfter's table, and what one stalled
// flush among cheap ones is followed by is TestSmoothCost.

var pubEpoch = time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC)

type publisher struct {
	t       *testing.T
	clk     *wfclock.Manual
	v       *views.Views
	sub     *views.Sub
	inv     int64
	flushes float64 // stampede_views_flushes_total once every flush seen is counted
}

// flushesTotal reads the process-wide count of publisher flushes.
func flushesTotal() float64 {
	n, _ := telemetry.Default().SumValue("stampede_views_flushes_total")
	return n
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
	return &publisher{t: t, clk: clk, v: v, sub: sub, flushes: flushesTotal()}
}

// dirty makes one workflow dirty.
func (p *publisher) dirty(uuid string) {
	p.inv++
	p.v.ObserveBatch([]*bp.Event{invEnd(uuid, pubEpoch, p.inv, 1)})
}

// flush waits for the next flush and checks it carries exactly the named
// workflows, then for the publisher to count it, which it does once its rest
// is armed: the clock may be advanced from here on. The timeouts only turn a
// hang into a failure.
func (p *publisher) flush(want ...string) {
	p.t.Helper()
	defer func() {
		p.flushes++
		for deadline := time.Now().Add(10 * time.Second); flushesTotal() < p.flushes; runtime.Gosched() {
			if time.Now().After(deadline) {
				p.t.Fatal("the flush was published and never counted")
			}
		}
	}()
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
		p.t.Fatalf("%d flushes before the rest was over", n)
	}
}

// TestFirstDirtyPublishedAtOnce: the first workflow to go dirty while the
// publisher is not resting is on the wire with no clock advance; the next
// one waits out the rest — the floor, after a flush that cost nothing — and
// not a nanosecond more, however long FlushEvery is.
func TestFirstDirtyPublishedAtOnce(t *testing.T) {
	p := newPublisher(t, time.Hour)
	p.dirty("wf-a")
	p.flush("wf-a")

	p.dirty("wf-b")
	p.clk.Advance(views.RestFloor - time.Nanosecond)
	p.quiet()
	p.dirty("wf-c")
	p.clk.Advance(time.Nanosecond)
	p.flush("wf-b", "wf-c")

	// A rest with nothing to publish at its end, and the publisher is
	// prompt again.
	p.clk.Advance(views.RestFloor)
	p.quiet()
	p.clk.Advance(10 * time.Second)
	p.dirty("wf-d")
	p.flush("wf-d")
}

// TestContinuousDirtFlushesEveryInterval is the skipped-tick regression: N rests
// of continuous dirt are N flushes, one per rest, not one per two.
func TestContinuousDirtFlushesEveryInterval(t *testing.T) {
	p := newPublisher(t, 200*time.Millisecond)
	p.dirty("wf-0")
	p.flush("wf-0")
	for i := 1; i <= 20; i++ {
		uuid := fmt.Sprintf("wf-%d", i)
		p.dirty(uuid)
		p.clk.Advance(views.RestFloor / 2)
		p.quiet()
		p.clk.Advance(views.RestFloor / 2)
		p.flush(uuid)
	}
	p.quiet()
}

// TestRestNeverExceedsFlushEvery: FlushEvery caps the rest. Below the floor
// it is the rest, as it was the interval before the publisher paced itself.
func TestRestNeverExceedsFlushEvery(t *testing.T) {
	const every = 2 * time.Millisecond
	p := newPublisher(t, every)
	p.dirty("wf-a")
	p.flush("wf-a")
	p.dirty("wf-b")
	p.clk.Advance(every - time.Nanosecond)
	p.quiet()
	p.clk.Advance(time.Nanosecond)
	p.flush("wf-b")
}

// subscribe adds n subscriptions to uuid ("" = broadcast) that nobody reads.
func (p *publisher) subscribe(n int, uuid string) {
	p.t.Helper()
	for i := 0; i < n; i++ {
		sub, err := p.v.Subscribe(uuid)
		if err != nil {
			p.t.Fatal(err)
		}
		p.t.Cleanup(sub.Close)
	}
}

// TestFanOutStretchesSpacing: every flush reaches every broadcast
// subscriber, so 2,000 of them (and the harness's own) stretch the rest to
// 2,001 × RestPerSubscriber; 2,000 subscribers to one workflow that is never
// dirty cost a flush nothing and leave the rest at the floor.
func TestFanOutStretchesSpacing(t *testing.T) {
	t.Run("broadcast", func(t *testing.T) {
		p := newPublisher(t, time.Hour)
		p.subscribe(2000, "")
		rest := 2001 * views.RestPerSubscriber
		p.dirty("wf-a")
		p.flush("wf-a")
		p.dirty("wf-b")
		p.clk.Advance(rest - time.Nanosecond)
		p.quiet()
		p.dirty("wf-c")
		p.clk.Advance(time.Nanosecond)
		p.flush("wf-b", "wf-c")
	})
	t.Run("per-workflow", func(t *testing.T) {
		p := newPublisher(t, time.Hour)
		p.subscribe(2000, "nobody")
		p.dirty("wf-a")
		p.flush("wf-a")
		p.dirty("wf-b")
		p.clk.Advance(views.RestFloor - time.Nanosecond)
		p.quiet()
		p.clk.Advance(time.Nanosecond)
		p.flush("wf-b")
	})
}

// TestTenThousandSubscribers: at the fan-out the benchmark family goes to,
// the rest is 10,000 × RestPerSubscriber — the default FlushEvery, which is
// where the rule meets its ceiling — and the publisher, measured on the wall
// clock through its own two counters, stays under its share of a core.
func TestTenThousandSubscribers(t *testing.T) {
	const subs = 10000
	t.Run("rest", func(t *testing.T) {
		p := newPublisher(t, time.Hour)
		p.subscribe(subs-1, "")
		rest := subs * views.RestPerSubscriber
		p.dirty("wf-a")
		p.flush("wf-a")
		p.dirty("wf-b")
		p.clk.Advance(rest - time.Nanosecond)
		p.quiet()
		p.clk.Advance(time.Nanosecond)
		p.flush("wf-b")
	})
	t.Run("duty cycle", func(t *testing.T) {
		busy := func() time.Duration {
			s, _ := telemetry.Default().SumValue("stampede_views_flush_busy_seconds_total")
			return time.Duration(s * float64(time.Second))
		}
		// FlushEvery is out of the way: under the race detector a flush to
		// 10,000 queues can cost more than a tenth of the default.
		v := views.New(views.Options{FlushEvery: time.Hour})
		defer v.Close()
		for i := 0; i < subs; i++ {
			sub, err := v.Subscribe("")
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
		}
		// Dirt as fast as it can be made until five flushes have gone out,
		// timed from the first to the last being counted.
		inv := int64(0)
		dirtyUntil := func(n float64) {
			for deadline := time.Now().Add(time.Minute); flushesTotal() < n; inv++ {
				if time.Now().After(deadline) {
					t.Fatal("the publisher stopped flushing")
				}
				v.ObserveBatch([]*bp.Event{invEnd(fmt.Sprintf("wf-%d", inv%64), pubEpoch, inv, 1)})
			}
		}
		const flushes = 5
		f0 := flushesTotal()
		dirtyUntil(f0 + 1)
		t0, b0 := time.Now(), busy()
		dirtyUntil(f0 + 1 + flushes)
		elapsed, spent := time.Since(t0), busy()-b0
		if least := flushes * subs * views.RestPerSubscriber; elapsed < least {
			t.Errorf("%d flushes to %d subscribers in %v: each rest is at least %v", flushes, subs, elapsed, least/flushes)
		}
		// Every flush is followed by a rest of RestPerCost times what it
		// took, so the share is 1/(1+RestPerCost) when flushes cost the same
		// and the window's first and last do not; half as much again covers
		// that.
		share := float64(spent) / float64(elapsed)
		t.Logf("%d flushes in %v, %v of it flushing: %.1f%% of a core", flushes, elapsed, spent, 100*share)
		if limit := 1.5 / (1 + views.RestPerCost); share > limit {
			t.Errorf("the publisher took %.1f%% of a core, its share is under %.1f%%", 100*share, 100*limit)
		}
	})
}

// TestRestAfter is the rule itself, a pure function of what the flush cost
// and how many broadcast subscribers it went to, under the FlushEvery
// ceiling.
func TestRestAfter(t *testing.T) {
	const ceiling = 200 * time.Millisecond
	for _, c := range []struct {
		name string
		cost time.Duration
		subs int
		want time.Duration
	}{
		{"a free flush rests the floor", 0, 0, views.RestFloor},
		{"the floor wins for a cheap flush", 300 * time.Microsecond, 1, views.RestFloor},
		{"cost wins for a dear one", 4 * time.Millisecond, 1, 40 * time.Millisecond},
		{"cost at the floor exactly", time.Millisecond, 0, views.RestFloor},
		{"fan-out wins over a cheap flush", 500 * time.Microsecond, 2000, 40 * time.Millisecond},
		{"cost wins over fan-out", 9 * time.Millisecond, 2000, 90 * time.Millisecond},
		{"the ceiling caps cost", 50 * time.Millisecond, 0, ceiling},
		{"the ceiling caps fan-out", 0, 50000, ceiling},
		{"10,000 subscribers meet the default ceiling", 0, 10000, ceiling},
	} {
		if got := views.RestAfter(c.cost, c.subs, ceiling); got != c.want {
			t.Errorf("%s: restAfter(%v, %d) = %v, want %v", c.name, c.cost, c.subs, got, c.want)
		}
	}
	if got := views.RestAfter(time.Second, 1<<20, time.Millisecond); got != time.Millisecond {
		t.Errorf("a ceiling under the floor: rest %v, want the ceiling", got)
	}
}

// TestSmoothCost: what the rule is fed is the running mean of what a flush
// costs. One flush that stalled (descheduled, a collection) among cheap ones
// must not be answered with ten times the stall as a single rest — that one
// rest was a saturated run's whole glass p99, different every run — while a
// cost that really rose is followed within a few flushes, so the share of a
// core stays bounded.
func TestSmoothCost(t *testing.T) {
	const (
		ceiling = 200 * time.Millisecond
		cheap   = 400 * time.Microsecond
		stall   = 10 * time.Millisecond
	)
	if got := views.SmoothCost(0, stall); got != stall {
		t.Errorf("the first flush timed is the mean: got %v, want %v", got, stall)
	}
	if got := views.SmoothCost(cheap, cheap); got != cheap {
		t.Errorf("a steady cost is its own mean: got %v, want %v", got, cheap)
	}

	mean := time.Duration(0)
	for i := 0; i < 20; i++ {
		mean = views.SmoothCost(mean, cheap)
	}
	mean = views.SmoothCost(mean, stall)
	if rest := views.RestAfter(mean, 1, ceiling); rest > 2*views.RestFloor {
		t.Errorf("one %v flush among %v ones is followed by a rest of %v, want at most %v (unsmoothed: %v)",
			stall, cheap, rest, 2*views.RestFloor, views.RestAfter(stall, 1, ceiling))
	}
	// The stall is still paid for, spread over the flushes that follow: the
	// means it leaves behind add up to (nearly) the stall itself.
	var extra time.Duration
	for i := 0; i < 8*views.CostSmoothing; i++ {
		extra += mean - cheap
		mean = views.SmoothCost(mean, cheap)
	}
	if extra < (stall-cheap)*9/10 || extra > stall-cheap {
		t.Errorf("the stall is charged %v over the flushes that follow, want nearly all of %v", extra, stall-cheap)
	}

	// A cost that rose for good is what the rule sees within 3×CostSmoothing
	// flushes, to within 5%.
	for i := 0; i < 3*views.CostSmoothing; i++ {
		mean = views.SmoothCost(mean, stall)
	}
	if mean < stall*95/100 || mean > stall {
		t.Errorf("after %d flushes at %v the mean is %v", 3*views.CostSmoothing, stall, mean)
	}
	if rest := views.RestAfter(mean, 1, ceiling); rest < views.RestPerCost*stall*95/100 {
		t.Errorf("a flush that costs %v every time is followed by %v, want about %v", stall, rest, views.RestPerCost*stall)
	}
}
