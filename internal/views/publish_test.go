package views_test

import (
	"context"
	"fmt"
	"io"
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
// that must happen is waited for on the broadcast subscription (one frame
// is one flush), one that must not have happened is shown by the next flush
// still carrying the workflow it would have taken. A Manual clock does not
// move inside a flush or a delivery, so every flush here costs nothing and
// the rest that follows it is the floor, unless a test records what
// delivery costs (NoteDelivery); what a flush that does cost is followed by
// is TestRestAfter's table, and what one stalled flush among cheap ones is
// followed by is TestSmoothCost.

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
	v := views.New(views.Options{Clock: clk, FlushEvery: every})
	t.Cleanup(v.Close)
	sub := v.Subscribe("")
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
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if !p.sub.Wait(ctx) {
		p.t.Fatalf("no flush carrying %v", want)
	}
	var b strings.Builder
	p.sub.WriteTo(&b)
	frame := b.String()
	if n := strings.Count(frame, "event: delta"); n != len(want) {
		p.t.Fatalf("flush carries %d deltas, want %v: %q", n, want, frame)
	}
	for _, uuid := range want {
		if !strings.Contains(frame, `"uuid":"`+uuid+`"`) {
			p.t.Fatalf("flush lacks %s — it was published earlier than its bound: %q", uuid, frame)
		}
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
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if p.sub.Wait(done) {
		p.t.Fatal("a flush before the rest was over")
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
	for i := 0; i < n; i++ {
		p.t.Cleanup(p.v.Subscribe(uuid).Close)
	}
}

// deliver records what the last CostSamples deliveries each cost.
func (p *publisher) deliver(each time.Duration) {
	for i := 0; i < views.CostSamples; i++ {
		p.v.NoteDelivery(each)
	}
}

// TestFanOutStretchesSpacing: a flush reaches every broadcast subscriber,
// so with delivery measured at 2 µs a subscriber, 2,000 of them (and the
// harness's own) stretch the rest to RestPerCost × 2,001 × 2 µs; 2,000
// subscribers to one workflow that is never dirty are never reached and
// leave the rest at the floor.
func TestFanOutStretchesSpacing(t *testing.T) {
	const each = 2 * time.Microsecond
	t.Run("broadcast", func(t *testing.T) {
		p := newPublisher(t, time.Hour)
		p.subscribe(2000, "")
		p.deliver(each)
		rest := views.RestPerCost * 2001 * each
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
		p.deliver(each)
		p.dirty("wf-a")
		p.flush("wf-a")
		p.dirty("wf-b")
		// Only the harness's own subscriber is reached: RestPerCost × 2 µs,
		// under the floor.
		p.clk.Advance(views.RestFloor - time.Nanosecond)
		p.quiet()
		p.clk.Advance(time.Nanosecond)
		p.flush("wf-b")
	})
}

// TestTenThousandSubscribers: at the fan-out the benchmark family goes to,
// delivery measured at 1 µs a subscriber makes the rest 100 ms, half the
// default FlushEvery; and the publisher, measured on the wall clock through
// its own two counters, stays under its share of a core, however many
// subscribers there are, because a flush wakes them all with one broadcast.
func TestTenThousandSubscribers(t *testing.T) {
	const subs = 10000
	t.Run("rest", func(t *testing.T) {
		p := newPublisher(t, time.Hour)
		p.subscribe(subs-1, "")
		p.deliver(time.Microsecond)
		rest := views.RestPerCost * subs * time.Microsecond
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
		// FlushEvery is out of the way: under the race detector a flush can
		// cost more than a tenth of the default.
		v := views.New(views.Options{FlushEvery: time.Hour})
		defer v.Close()
		for i := 0; i < subs; i++ {
			defer v.Subscribe("").Close()
		}
		// Dirt as fast as it can be made until twenty flushes have gone out,
		// timed from the first to the last being counted, once the running
		// mean of what a flush costs has had 3×CostSmoothing flushes to learn
		// it (before that the rests undercharge the flushes).
		inv := int64(0)
		dirtyUntil := func(n float64) {
			for deadline := time.Now().Add(time.Minute); flushesTotal() < n; inv++ {
				if time.Now().After(deadline) {
					t.Fatal("the publisher stopped flushing")
				}
				v.ObserveBatch([]*bp.Event{invEnd(fmt.Sprintf("wf-%d", inv%64), pubEpoch, inv, 1)})
			}
		}
		const flushes = 20
		f0 := flushesTotal() + 3*views.CostSmoothing
		dirtyUntil(f0)
		t0, b0 := time.Now(), busy()
		dirtyUntil(f0 + flushes)
		elapsed, spent := time.Since(t0), busy()-b0
		if least := flushes * views.RestFloor; elapsed < least {
			t.Errorf("%d flushes in %v: each rest is at least %v", flushes, elapsed, views.RestFloor)
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

// TestStalledSubscriberIsOneSubscriber: 999 subscribers each take 1 µs from
// wake-up to written and one blocks for a second on its socket. What a
// flush is charged for delivering to the thousand stays within 2× of what
// the 999 alone cost — not the second a mean would charge — and so does the
// rest that follows it. Deliveries are timed on the Manual clock through
// Wait and WriteTo, as the SSE handler makes them.
func TestStalledSubscriberIsOneSubscriber(t *testing.T) {
	const ceiling = 200 * time.Millisecond
	delivery := func(stall bool) time.Duration {
		clk := wfclock.NewManual(pubEpoch)
		v := views.New(views.Options{Clock: clk, FlushEvery: time.Hour})
		defer v.Close()
		n := 999
		if stall {
			n++
		}
		subs := make([]*views.Sub, n)
		for i := range subs {
			subs[i] = v.Subscribe("")
			defer subs[i].Close()
		}
		v.PublishFrame("ping", []byte("{}"))
		for i, s := range subs {
			if !s.Wait(context.Background()) {
				t.Fatal("no frame to deliver")
			}
			if stall && i == n-1 {
				clk.Advance(time.Second) // the last sample: it is in the window
			} else {
				clk.Advance(time.Microsecond)
			}
			if _, err := s.WriteTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		return time.Duration(n) * v.PerSubscriber()
	}
	alone, stalled := delivery(false), delivery(true)
	t.Logf("delivery: 999 subscribers %v, with a stalled one %v", alone, stalled)
	if alone != 999*time.Microsecond {
		t.Errorf("999 deliveries of 1 µs are charged %v", alone)
	}
	if stalled > 2*alone {
		t.Errorf("a stalled subscriber made delivery %v, the 999 alone cost %v", stalled, alone)
	}
	if ra, rs := views.RestAfter(alone, ceiling), views.RestAfter(stalled, ceiling); rs > 2*ra {
		t.Errorf("a stalled subscriber stretched the rest to %v, the 999 alone rest %v", rs, ra)
	}
}

// TestRestAfter is the rule itself, a pure function of what the flush and
// its delivery cost, under the FlushEvery ceiling.
func TestRestAfter(t *testing.T) {
	const ceiling = 200 * time.Millisecond
	for _, c := range []struct {
		name string
		cost time.Duration
		want time.Duration
	}{
		{"a free flush rests the floor", 0, views.RestFloor},
		{"the floor wins for a cheap flush", 300 * time.Microsecond, views.RestFloor},
		{"cost wins for a dear one", 4 * time.Millisecond, 40 * time.Millisecond},
		{"cost at the floor exactly", time.Millisecond, views.RestFloor},
		{"1,001 subscribers at 1 µs beside a 500 µs flush", 500*time.Microsecond + 1001*time.Microsecond, 15010 * time.Microsecond},
		{"the ceiling caps cost", 50 * time.Millisecond, ceiling},
	} {
		if got := views.RestAfter(c.cost, ceiling); got != c.want {
			t.Errorf("%s: restAfter(%v) = %v, want %v", c.name, c.cost, got, c.want)
		}
	}
	if got := views.RestAfter(time.Second, time.Millisecond); got != time.Millisecond {
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
	if rest := views.RestAfter(mean, ceiling); rest > 2*views.RestFloor {
		t.Errorf("one %v flush among %v ones is followed by a rest of %v, want at most %v (unsmoothed: %v)",
			stall, cheap, rest, 2*views.RestFloor, views.RestAfter(stall, ceiling))
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
	if rest := views.RestAfter(mean, ceiling); rest < views.RestPerCost*stall*95/100 {
		t.Errorf("a flush that costs %v every time is followed by %v, want about %v", stall, rest, views.RestPerCost*stall)
	}
}
