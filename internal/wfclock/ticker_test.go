package wfclock

import (
	"testing"
	"time"
)

var tickEpoch = time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC)

func TestManualTickerFiresOnAdvance(t *testing.T) {
	c := NewManual(tickEpoch)
	tk := NewTicker(c, time.Second)
	defer tk.Stop()
	select {
	case <-tk.C():
		t.Fatal("tick before any advance")
	default:
	}
	c.Advance(999 * time.Millisecond)
	select {
	case <-tk.C():
		t.Fatal("tick before interval elapsed")
	default:
	}
	c.Advance(time.Millisecond)
	select {
	case ts := <-tk.C():
		if !ts.Equal(tickEpoch.Add(time.Second)) {
			t.Fatalf("tick at %v, want %v", ts, tickEpoch.Add(time.Second))
		}
	default:
		t.Fatal("no tick after interval elapsed")
	}
}

func TestManualTickerCoalescesLikeTimeTicker(t *testing.T) {
	c := NewManual(tickEpoch)
	tk := NewTicker(c, time.Second)
	defer tk.Stop()
	// Jumping many intervals delivers at most one buffered tick, matching
	// time.Ticker's slow-receiver behaviour, and reschedules past now.
	c.Advance(10 * time.Second)
	select {
	case <-tk.C():
	default:
		t.Fatal("no tick after jump")
	}
	select {
	case ts := <-tk.C():
		t.Fatalf("second buffered tick at %v", ts)
	default:
	}
	// Next tick only after the next full interval.
	c.Advance(999 * time.Millisecond)
	select {
	case <-tk.C():
		t.Fatal("tick rescheduled inside current interval")
	default:
	}
	c.Advance(time.Millisecond)
	select {
	case <-tk.C():
	default:
		t.Fatal("no tick at next interval boundary")
	}
}

func TestManualTickerStop(t *testing.T) {
	c := NewManual(tickEpoch)
	tk := NewTicker(c, time.Second)
	tk.Stop()
	c.Advance(5 * time.Second)
	select {
	case <-tk.C():
		t.Fatal("tick after Stop")
	default:
	}
	// Stopping twice must not panic or corrupt the ticker list.
	tk.Stop()
}

func TestManualTickerSleepAdvances(t *testing.T) {
	c := NewManual(tickEpoch)
	tk := NewTicker(c, time.Minute)
	defer tk.Stop()
	c.Sleep(time.Minute)
	select {
	case <-tk.C():
	default:
		t.Fatal("Sleep did not fire due tick")
	}
}

func TestManualTickerSetBackwardsReschedules(t *testing.T) {
	c := NewManual(tickEpoch)
	tk := NewTicker(c, time.Second)
	defer tk.Stop()
	c.Set(tickEpoch.Add(-time.Hour))
	c.Advance(999 * time.Millisecond)
	select {
	case <-tk.C():
		t.Fatal("tick fired before a full interval on the new timeline")
	default:
	}
	c.Advance(time.Millisecond)
	select {
	case <-tk.C():
	default:
		t.Fatal("no tick a full interval after Set")
	}
}

func TestRealTickerDelivers(t *testing.T) {
	tk := NewTicker(Real, 5*time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C():
	case <-time.After(2 * time.Second):
		t.Fatal("real ticker never ticked")
	}
}

func TestScaledTickerCompresses(t *testing.T) {
	// 10 virtual seconds per real second: a 1-virtual-second ticker must
	// fire within a couple hundred real milliseconds.
	c := NewScaled(tickEpoch, 10)
	tk := NewTicker(c, time.Second)
	defer tk.Stop()
	select {
	case <-tk.C():
	case <-time.After(2 * time.Second):
		t.Fatal("scaled ticker never ticked")
	}
}

func TestNewTickerPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive interval")
		}
	}()
	NewTicker(Real, 0)
}

func TestManualTickerReset(t *testing.T) {
	c := NewManual(tickEpoch)
	tk := NewTicker(c, time.Second)
	defer tk.Stop()
	// A tick that fired but was not received is discarded, and the new
	// interval counts from the Reset, not from the old schedule.
	c.Advance(1500 * time.Millisecond)
	tk.Reset(3 * time.Second)
	select {
	case <-tk.C():
		t.Fatal("stale tick survived Reset")
	default:
	}
	c.Advance(3*time.Second - time.Millisecond)
	select {
	case <-tk.C():
		t.Fatal("tick before the new interval elapsed")
	default:
	}
	c.Advance(time.Millisecond)
	select {
	case ts := <-tk.C():
		if want := tickEpoch.Add(4500 * time.Millisecond); !ts.Equal(want) {
			t.Fatalf("tick at %v, want %v", ts, want)
		}
	default:
		t.Fatal("no tick one new interval after Reset")
	}
}

func TestRealTickerReset(t *testing.T) {
	tk := NewTicker(Real, time.Hour)
	defer tk.Stop()
	tk.Reset(5 * time.Millisecond)
	select {
	case <-tk.C():
	case <-time.After(2 * time.Second):
		t.Fatal("reset ticker never ticked")
	}
}
