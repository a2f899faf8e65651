package condor

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/wfclock"
)

var epoch = time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC)

func onesite(hosts, slots int) []Site {
	hs := make([]HostSpec, hosts)
	for i := range hs {
		hs[i] = HostSpec{Hostname: fmt.Sprintf("node%d", i+1), IP: fmt.Sprintf("10.0.0.%d", i+1), Slots: slots}
	}
	return []Site{{Name: "cluster", Hosts: hs}}
}

func TestJobLifecycleEvents(t *testing.T) {
	clk := wfclock.NewScaled(epoch, 1000)
	var mu sync.Mutex
	var events []Event
	pool, err := NewPool(clk, 0, onesite(1, 1), func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	done, err := pool.Submit(JobSpec{ID: "j1", Site: "cluster", Duration: 10 * time.Second, ExitCode: 0})
	if err != nil {
		t.Fatal(err)
	}
	term := <-done
	if term.Type != EventTerminate || term.ExitCode != 0 || term.Hostname != "node1" {
		t.Fatalf("terminate = %+v", term)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Type != EventSubmit || events[1].Type != EventExecute || events[2].Type != EventTerminate {
		t.Fatalf("order = %v %v %v", events[0].Type, events[1].Type, events[2].Type)
	}
	if d := events[2].Time.Sub(events[1].Time); d < 8*time.Second || d > 20*time.Second {
		t.Fatalf("virtual runtime = %v, want ~10s", d)
	}
}

func TestQueueDelayWhenSlotsBusy(t *testing.T) {
	clk := wfclock.NewScaled(epoch, 1000)
	pool, err := NewPool(clk, 0, onesite(1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	d1, _ := pool.Submit(JobSpec{ID: "a", Site: "cluster", Duration: 20 * time.Second})
	d2, _ := pool.Submit(JobSpec{ID: "b", Site: "cluster", Duration: 20 * time.Second})
	t1 := <-d1
	t2 := <-d2
	if gap := t2.Time.Sub(t1.Time); gap < 10*time.Second {
		t.Fatalf("second job finished only %v after first on a 1-slot pool", gap)
	}
}

func TestParallelismAcrossSlots(t *testing.T) {
	clk := wfclock.NewScaled(epoch, 1000)
	pool, err := NewPool(clk, 0, onesite(4, 2), nil) // 8 slots
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	start := clk.Now()
	var chans []<-chan Event
	for i := 0; i < 8; i++ {
		ch, err := pool.Submit(JobSpec{ID: fmt.Sprintf("j%d", i), Site: "cluster", Duration: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	hosts := map[string]bool{}
	for _, ch := range chans {
		ev := <-ch
		hosts[ev.Hostname] = true
	}
	elapsed := clk.Since(start)
	// 8 jobs x 30s on 8 slots should take ~30s, not 240s.
	if elapsed > 100*time.Second {
		t.Fatalf("8 jobs on 8 slots took %v virtual", elapsed)
	}
	if len(hosts) != 4 {
		t.Fatalf("jobs spread over %d hosts, want 4", len(hosts))
	}
}

func TestNegotiationDelay(t *testing.T) {
	clk := wfclock.NewScaled(epoch, 1000)
	var execAt, subAt time.Time
	var mu sync.Mutex
	pool, err := NewPool(clk, 5*time.Second, onesite(1, 1), func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Type {
		case EventSubmit:
			subAt = ev.Time
		case EventExecute:
			execAt = ev.Time
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	done, _ := pool.Submit(JobSpec{ID: "j", Site: "cluster", Duration: time.Second})
	<-done
	mu.Lock()
	defer mu.Unlock()
	if wait := execAt.Sub(subAt); wait < 4*time.Second {
		t.Fatalf("queue wait = %v, want >= ~5s negotiation delay", wait)
	}
}

func TestFailingJobExitCode(t *testing.T) {
	pool, err := NewPool(wfclock.NewScaled(epoch, 1000), 0, onesite(1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	done, _ := pool.Submit(JobSpec{ID: "bad", Site: "cluster", Duration: time.Second, ExitCode: 42})
	if term := <-done; term.ExitCode != 42 {
		t.Fatalf("exit = %d", term.ExitCode)
	}
}

func TestErrors(t *testing.T) {
	if _, err := NewPool(nil, 0, nil, nil); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := NewPool(nil, 0, []Site{{Name: "s"}}, nil); err == nil {
		t.Error("hostless site accepted")
	}
	pool, err := NewPool(wfclock.Real, 0, onesite(1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Submit(JobSpec{ID: "x", Site: "ghost"}); err == nil {
		t.Error("unknown site accepted")
	}
	pool.Close()
	pool.Close() // idempotent
	if _, err := pool.Submit(JobSpec{ID: "x", Site: "cluster"}); err == nil {
		t.Error("submit after close accepted")
	}
	if got := len(pool.sites); got != 1 {
		t.Errorf("sites = %d", got)
	}
}
