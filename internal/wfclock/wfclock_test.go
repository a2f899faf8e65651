package wfclock

import (
	"sync"
	"testing"
	"time"
)

func TestRealClockMonotoneEnough(t *testing.T) {
	a := Real.Now()
	Real.Sleep(time.Millisecond)
	b := Real.Now()
	if !b.After(a) {
		t.Fatalf("real clock did not advance: %v then %v", a, b)
	}
	if d := Real.Since(a); d <= 0 {
		t.Fatalf("Since returned %v", d)
	}
}

func TestScaledNowAdvancesFaster(t *testing.T) {
	epoch := time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC)
	c := NewScaled(epoch, 1000)
	time.Sleep(5 * time.Millisecond)
	elapsed := c.Since(epoch)
	// 5ms real at 1000x should be about 5 virtual seconds; allow slack.
	if elapsed < 2*time.Second {
		t.Fatalf("scaled clock advanced only %v, want >= 2s virtual", elapsed)
	}
}

func TestScaledSleepCompresses(t *testing.T) {
	c := NewScaled(time.Unix(0, 0), 1000)
	start := time.Now()
	c.Sleep(2 * time.Second) // should cost ~2ms real
	if real := time.Since(start); real > 500*time.Millisecond {
		t.Fatalf("scaled sleep of 2s virtual took %v real", real)
	}
}

func TestScaledZeroSleepReturns(t *testing.T) {
	c := NewScaled(time.Unix(0, 0), 10)
	done := make(chan struct{})
	go func() {
		c.Sleep(0)
		c.Sleep(-time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("zero/negative sleep blocked")
	}
}

func TestScaledPanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewScaled(0) did not panic")
		}
	}()
	NewScaled(time.Now(), 0)
}

func TestScaledScaleAccessor(t *testing.T) {
	c := NewScaled(time.Now(), 250)
	if got := c.Scale(); got != 250 {
		t.Fatalf("Scale() = %v, want 250", got)
	}
}

func TestManualDeterminism(t *testing.T) {
	start := time.Date(2012, 3, 13, 12, 35, 38, 0, time.UTC)
	c := NewManual(start)
	if !c.Now().Equal(start) {
		t.Fatalf("manual clock not at start")
	}
	c.Advance(74 * time.Second)
	if got := c.Since(start); got != 74*time.Second {
		t.Fatalf("Since = %v, want 74s", got)
	}
	c.Sleep(time.Second) // advances, never blocks
	if got := c.Since(start); got != 75*time.Second {
		t.Fatalf("after Sleep, Since = %v, want 75s", got)
	}
	c.Set(start)
	if !c.Now().Equal(start) {
		t.Fatalf("Set did not reposition clock")
	}
}

func TestManualConcurrentAdvance(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Advance(time.Second)
		}()
	}
	wg.Wait()
	if got := c.Now(); !got.Equal(time.Unix(50, 0)) {
		t.Fatalf("after 50 concurrent advances, now = %v", got)
	}
}

// Set positions the clock at t. Moving backwards is allowed; tickers
// reschedule relative to the new position when moving backwards.
func (c *Manual) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	back := t.Before(c.now)
	c.now = t
	if back {
		for _, tk := range c.tickers {
			tk.next = t.Add(tk.d)
		}
		return
	}
	c.fireDueLocked()
}
