package views_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bp"
	"repro/internal/telemetry"
	"repro/internal/views"
	"repro/internal/wfclock"
)

func counter(name string) float64 {
	n, _ := telemetry.Default().SumValue(name)
	return n
}

// TestLaggingSubscriberResyncs: a subscriber that fell further behind than
// the frame log keeps is sent one resync carrying the view's snapshot, the
// frames it missed are counted dropped, and it reads on from the log's end.
func TestLaggingSubscriberResyncs(t *testing.T) {
	views.SetRingLen(t, 4)
	v := views.New(views.Options{Clock: wfclock.NewManual(pubEpoch), FlushEvery: time.Hour})
	defer v.Close()
	bcast, wf := v.Subscribe(""), v.Subscribe("wf-3")
	defer bcast.Close()
	defer wf.Close()
	dropped0, resyncs0 := counter("stampede_views_dropped_deltas_total"), counter("stampede_views_resyncs_total")
	for i := 0; i < 10; i++ {
		v.ObserveBatch([]*bp.Event{invEnd(fmt.Sprintf("wf-%d", i), pubEpoch, int64(i), 1)})
		v.FlushNow()
	}
	var b, w strings.Builder
	bcast.WriteTo(&b)
	wf.WriteTo(&w)
	if got := b.String(); !strings.HasPrefix(got, "event: resync\ndata: [") || strings.Count(got, "event: ") != 1 || strings.Count(got, `"uuid":"`) != 10 {
		t.Fatalf("broadcast subscriber 10 flushes behind a 4-frame ring was sent %q", got)
	}
	if got := w.String(); strings.Count(got, "event: ") != 1 || !strings.HasPrefix(got, "event: delta\ndata: {\"uuid\":\"wf-3\"") {
		t.Fatalf("the workflow's subscriber had one frame, within its ring, and was sent %q", got)
	}
	if d := counter("stampede_views_dropped_deltas_total") - dropped0; d != 10 {
		t.Errorf("%v frames counted dropped, want the 10 skipped", d)
	}
	if r := counter("stampede_views_resyncs_total") - resyncs0; r != 1 {
		t.Errorf("%v resyncs, want 1", r)
	}
	v.ObserveBatch([]*bp.Event{invEnd("wf-3", pubEpoch, 99, 1)})
	v.FlushNow()
	b.Reset()
	bcast.WriteTo(&b)
	if got := b.String(); !strings.HasPrefix(got, "event: delta\ndata: ") || strings.Count(got, "event: ") != 1 {
		t.Fatalf("after its resync the subscriber was sent %q, want the next flush", got)
	}
}

// stampedeConn is one subscriber of TestSubscriberStampede, written to as
// the SSE handler writes: the snapshot, then frames, one per Write.
type stampedeConn struct {
	sub                        *views.Sub
	uuid                       string
	snapshots, resyncs, deltas int
	foreign                    string // a frame about another workflow
}

func (c *stampedeConn) Write(p []byte) (int, error) {
	c.snapshots += bytes.Count(p, []byte("event: snapshot\n"))
	c.resyncs += bytes.Count(p, []byte("event: resync\n"))
	c.deltas += bytes.Count(p, []byte("event: delta\n"))
	if c.uuid != "" && c.foreign == "" && bytes.Count(p, []byte(`"uuid":"`)) != bytes.Count(p, []byte(`"uuid":"`+c.uuid+`"`)) {
		c.foreign = string(p)
	}
	return len(p), nil
}

// TestSubscriberStampede is the stampede of 10,000 clients connecting
// inside one flush — between two flushes, while the loader keeps dirtying
// workflows and one flush goes out among them. Each gets exactly one
// snapshot and, from the flush after, its frames: no resync, and a
// per-workflow subscriber (every tenth) never sees another workflow's
// frame. Sixteen goroutines make the connections, so the race detector's
// goroutine limit is no bound on the count.
func TestSubscriberStampede(t *testing.T) {
	const subs, workers, wfs = 10000, 16, 4
	v := views.New(views.Options{Clock: wfclock.NewManual(pubEpoch), FlushEvery: time.Hour})
	defer v.Close()
	inv := int64(0)
	dirtyAll := func() {
		batch := make([]*bp.Event, wfs)
		for i := range batch {
			inv++
			batch[i] = invEnd(fmt.Sprintf("stampede-%d", i), pubEpoch, inv, 1)
		}
		v.ObserveBatch(batch)
	}
	dirtyAll()
	v.FlushNow()
	resyncs0 := counter("stampede_views_resyncs_total")

	conns := make([]*stampedeConn, subs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < subs; i += workers {
				c := &stampedeConn{}
				if i%10 == 0 {
					c.uuid = fmt.Sprintf("stampede-%d", i/10%wfs)
				}
				c.sub = v.Subscribe(c.uuid)
				c.Write(append(v.AppendSnapshot([]byte("event: snapshot\ndata: "), c.uuid), "\n\n"...))
				conns[i] = c
			}
		}()
	}
	// The ingest side keeps going meanwhile; one flush lands among the
	// connections.
	stop := make(chan struct{})
	ingest := make(chan struct{})
	go func() {
		defer close(ingest)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			dirtyAll()
			if i == 10 {
				v.FlushNow()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-ingest
	dirtyAll()
	v.FlushNow()

	var deliver sync.WaitGroup
	for w := 0; w < workers; w++ {
		deliver.Add(1)
		go func() {
			defer deliver.Done()
			for i := w; i < subs; i += workers {
				conns[i].sub.WriteTo(conns[i])
				conns[i].sub.Close()
			}
		}()
	}
	deliver.Wait()
	for i, c := range conns {
		if c.snapshots != 1 || c.resyncs != 0 || c.deltas == 0 {
			t.Fatalf("subscriber %d (%q): %d snapshots, %d resyncs, %d deltas; want 1, 0 and some", i, c.uuid, c.snapshots, c.resyncs, c.deltas)
		}
		if c.foreign != "" {
			t.Fatalf("subscriber %d to %s was sent %q", i, c.uuid, c.foreign)
		}
	}
	if r := counter("stampede_views_resyncs_total") - resyncs0; r != 0 {
		t.Errorf("%v resyncs in the stampede", r)
	}
	if n := v.SubscriberCount(); n != 0 {
		t.Errorf("%d subscribers left after every one closed", n)
	}
}
