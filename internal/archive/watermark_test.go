package archive

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bp"
	"repro/internal/schema"
)

// TestWatermarkPerPartition interleaves more than 4,096 workflows across
// four partitions, with timestamps out of order, and applies each
// partition's events from its own goroutine while another reads: the
// archive's watermark never moves back, each partition's ends at the
// newest timestamp it applied, the archive's at their maximum, and events
// that name no workflow move neither.
func TestWatermarkPerPartition(t *testing.T) {
	const parts, workflows, rounds = 4, 4200, 3
	a := NewInMemoryN(parts)
	defer a.Close()
	if ts, ok := a.Watermark(); ok {
		t.Fatalf("empty archive reports watermark %v", ts)
	}

	var want [parts]time.Time
	var evs [parts][]*bp.Event
	for r := 0; r < rounds; r++ {
		for i := 0; i < workflows; i++ {
			wf := fmt.Sprintf("00000000-0000-4000-8000-%012d", i)
			ts := t0.Add(time.Duration((i*7919+r*104729)%100000) * time.Millisecond)
			p := Route(wf, parts)
			evs[p] = append(evs[p], bp.New(schema.XwfStart, ts).Set(schema.AttrXwfID, wf).SetInt("restart_count", 0))
			if ts.After(want[p]) {
				want[p] = ts
			}
		}
		// Applied without error, but newer than everything and of no
		// workflow: it must not count.
		p := Route("", parts)
		evs[p] = append(evs[p], bp.New(schema.StaticStart, t0.Add(24*time.Hour)))
	}

	done := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		var last time.Time
		for {
			select {
			case <-done:
				return
			default:
			}
			got, _ := a.Watermark()
			if got.Before(last) {
				t.Errorf("watermark moved back from %v to %v", last, got)
				return
			}
			last = got
		}
	}()
	var wg sync.WaitGroup
	for p := range evs {
		wg.Add(1)
		go func(evs []*bp.Event) {
			defer wg.Done()
			for len(evs) > 0 {
				n := min(512, len(evs))
				if _, err := a.ApplyBatch(evs[:n]); err != nil {
					t.Error(err)
					return
				}
				evs = evs[n:]
			}
		}(evs[p])
	}
	wg.Wait()
	close(done)
	<-read

	var newest time.Time
	for p := range want {
		if got := a.parts[p].newest.Load(); got != want[p].UnixNano() {
			t.Errorf("partition %d watermark %v, want %v", p, time.Unix(0, got).UTC(), want[p])
		}
		if want[p].After(newest) {
			newest = want[p]
		}
	}
	if got, ok := a.Watermark(); !ok || !got.Equal(newest) {
		t.Fatalf("Watermark() = %v, %v; want %v", got, ok, newest)
	}
}

// TestWatermarkPerArchive: two archives in one process keep their own
// watermarks, however the workflows they hold overlap.
func TestWatermarkPerArchive(t *testing.T) {
	a, b, c := NewInMemoryN(2), NewInMemoryN(2), NewInMemory()
	defer a.Close()
	defer b.Close()
	defer c.Close()

	const shared = "5e1f0c3a-7d2b-4c8e-9a61-0b3d4e5f6a7b"
	applyAll(t, a, emitWorkflow(shared))
	late := t0.Add(time.Hour)
	if err := b.Apply(bp.New(schema.XwfStart, late).Set(schema.AttrXwfID, shared).SetInt("restart_count", 0)); err != nil {
		t.Fatal(err)
	}

	var newest time.Time
	for _, ev := range emitWorkflow(shared) {
		if ev.TS.After(newest) {
			newest = ev.TS
		}
	}
	if got, ok := a.Watermark(); !ok || !got.Equal(newest) {
		t.Errorf("a: Watermark() = %v, %v; want %v", got, ok, newest)
	}
	if got, ok := b.Watermark(); !ok || !got.Equal(late) {
		t.Errorf("b: Watermark() = %v, %v; want %v", got, ok, late)
	}
	if got, ok := c.Watermark(); ok {
		t.Errorf("c applied nothing but reports %v", got)
	}
}
