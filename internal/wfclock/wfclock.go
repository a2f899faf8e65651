// Package wfclock provides the clock abstraction used by every engine and
// tool in this repository.
//
// The paper's DART experiment ran for 11 minutes of wall-clock time on an
// 8-node cloud. Reproducing its tables inside a test suite requires the
// same event sequence compressed into well under a second, without
// changing any of the code that emits timestamps. A Clock hides the
// difference: RealClock is time.Now/time.Sleep, while ScaledClock runs a
// virtual timeline at a configurable speed-up so a modeled 74-second task
// occupies 74 virtual seconds but only 74/scale real milliseconds.
package wfclock

import (
	"sync"
	"time"
)

// Clock supplies the current time and blocking sleeps to workflow engines,
// loaders and analysis tools. Implementations must be safe for concurrent
// use by many goroutines.
type Clock interface {
	// Now returns the current instant on this clock's timeline.
	Now() time.Time
	// Sleep blocks the calling goroutine for d of this clock's time.
	// Negative or zero durations return immediately.
	Sleep(d time.Duration)
	// Since returns the elapsed clock time since t.
	Since(t time.Time) time.Duration
}

// DurationSeconds converts a float second count (the unit cost models
// work in) to a time.Duration.
func DurationSeconds(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// Real is the process wall clock.
var Real Clock = realClock{}

type realClock struct{}

func (realClock) Now() time.Time                  { return time.Now() }
func (realClock) Sleep(d time.Duration)           { time.Sleep(d) }
func (realClock) Since(t time.Time) time.Duration { return time.Since(t) }

// Scaled is a virtual clock that advances `scale` times faster than the
// wall clock, anchored at a fixed epoch. Concurrency structure is
// preserved: goroutines sleeping on a Scaled clock still interleave in
// real time, just compressed.
type Scaled struct {
	mu    sync.Mutex
	epoch time.Time // virtual time at start
	start time.Time // real time at start
	scale float64   // virtual seconds per real second
}

// NewScaled returns a virtual clock whose timeline begins at epoch and
// advances scale virtual seconds per real second. scale must be positive;
// NewScaled panics otherwise because a non-positive scale is always a
// programming error.
func NewScaled(epoch time.Time, scale float64) *Scaled {
	if scale <= 0 {
		panic("wfclock: scale must be positive")
	}
	return &Scaled{epoch: epoch, start: time.Now(), scale: scale}
}

// Now returns the current virtual instant.
func (c *Scaled) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	real := time.Since(c.start)
	return c.epoch.Add(time.Duration(float64(real) * c.scale))
}

// Sleep blocks for d of virtual time (d/scale of real time).
func (c *Scaled) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	scale := c.scale
	c.mu.Unlock()
	time.Sleep(time.Duration(float64(d) / scale))
}

// Since returns the virtual time elapsed since t.
func (c *Scaled) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Scale returns the configured speed-up factor.
func (c *Scaled) Scale() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scale
}

// Ticker delivers periodic ticks on a clock's timeline. Stop releases the
// ticker's resources; after Stop no more ticks are delivered.
type Ticker interface {
	// C returns the delivery channel. Ticks may be dropped when the
	// receiver falls behind, exactly like time.Ticker.
	C() <-chan time.Time
	// Reset re-arms the ticker to fire every d counted from now and
	// discards a tick that fired but was not yet received, so the next
	// receive on C is never earlier than d from the call. Only the
	// goroutine that receives from C may call it.
	Reset(d time.Duration)
	Stop()
}

// NewTicker returns a ticker firing every d on c's timeline. Real (and any
// unknown Clock implementation) gets a plain time.Ticker; Scaled compresses
// the real interval by its scale factor; Manual tickers fire from Advance,
// Sleep and Set, which is what lets timer-dependent code paths (the
// loader's batch-age flush) be tested without real sleeping.
func NewTicker(c Clock, d time.Duration) Ticker {
	if d <= 0 {
		panic("wfclock: ticker interval must be positive")
	}
	switch cc := c.(type) {
	case *Manual:
		return cc.newTicker(d)
	case *Scaled:
		r := &realTicker{scale: cc.Scale()}
		r.t = time.NewTicker(r.real(d))
		return r
	default:
		return &realTicker{t: time.NewTicker(d), scale: 1}
	}
}

// realTicker is a time.Ticker whose intervals are divided by scale.
type realTicker struct {
	t     *time.Ticker
	scale float64
}

func (r *realTicker) real(d time.Duration) time.Duration {
	if r.scale == 1 {
		return d
	}
	return max(time.Duration(float64(d)/r.scale), time.Millisecond)
}

func (r *realTicker) C() <-chan time.Time { return r.t.C }
func (r *realTicker) Stop()               { r.t.Stop() }

func (r *realTicker) Reset(d time.Duration) {
	r.t.Reset(r.real(d))
	select {
	case <-r.t.C:
	default:
	}
}

// Manual is a fully deterministic clock for tests and discrete-event style
// trace synthesis: time only moves when Advance or Sleep is called, and
// Sleep advances the clock instead of blocking. It is safe for concurrent
// use, but Sleep-based ordering across goroutines is the caller's
// responsibility — Manual is intended for single-goroutine generators.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	tickers []*manualTicker
}

// manualTicker fires whenever the owning Manual clock's position crosses a
// multiple of its interval. The channel is buffered (capacity 1) and sends
// never block: a slow receiver misses ticks, matching time.Ticker.
type manualTicker struct {
	c    *Manual
	d    time.Duration
	next time.Time
	ch   chan time.Time
}

func (t *manualTicker) C() <-chan time.Time { return t.ch }

func (t *manualTicker) Reset(d time.Duration) {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	t.d, t.next = d, t.c.now.Add(d)
	select {
	case <-t.ch:
	default:
	}
}

func (t *manualTicker) Stop() {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	for i, x := range t.c.tickers {
		if x == t {
			t.c.tickers = append(t.c.tickers[:i], t.c.tickers[i+1:]...)
			return
		}
	}
}

func (c *Manual) newTicker(d time.Duration) *manualTicker {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &manualTicker{c: c, d: d, next: c.now.Add(d), ch: make(chan time.Time, 1)}
	c.tickers = append(c.tickers, t)
	return t
}

// fireDueLocked delivers at most one pending tick per ticker and advances
// each ticker's schedule past the clock's current position. Called with
// c.mu held after every time movement.
func (c *Manual) fireDueLocked() {
	for _, t := range c.tickers {
		if !c.now.Before(t.next) {
			select {
			case t.ch <- c.now:
			default:
			}
			for !c.now.Before(t.next) {
				t.next = t.next.Add(t.d)
			}
		}
	}
}

// NewManual returns a Manual clock positioned at start.
func NewManual(start time.Time) *Manual { return &Manual{now: start} }

// Now returns the clock's current position.
func (c *Manual) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances the clock by d without blocking.
func (c *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.Advance(d)
}

// Advance moves the clock forward by d, firing any tickers whose next
// scheduled tick is now due.
func (c *Manual) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	c.fireDueLocked()
}

// Since returns the clock time elapsed since t.
func (c *Manual) Since(t time.Time) time.Duration { return c.Now().Sub(t) }
