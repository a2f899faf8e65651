package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dashboard"
)

// viewer is the real SSE client: one HTTP connection to
// /api/stream/workflows on the dashboard's listener. Every frame that
// carries a workflow's state is matched against the inv.end lines
// published for that workflow: a frame whose invocations count reaches k
// puts the workflow's k-th inv.end line on the glass.
type viewer struct {
	h      *harness
	cancel context.CancelFunc
	body   io.ReadCloser
	ready  chan struct{} // closed at the first snapshot frame
	done   chan struct{}
	err    error // why the stream ended, unless stop ended it

	stopping atomic.Bool

	frames  atomic.Int64
	bytes   atomic.Int64
	resyncs atomic.Int64
	covered atomic.Int64 // inv.end lines on the glass so far
}

// frameState is the part of views.WorkflowDelta the matching rule reads.
type frameState struct {
	UUID        string `json:"uuid"`
	Invocations int    `json:"invocations"`
}

func startViewer(h *harness) (*viewer, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.baseURL+"/api/stream/workflows", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("bench: SSE stream: %s", resp.Status)
	}
	v := &viewer{h: h, cancel: cancel, body: resp.Body, ready: make(chan struct{}), done: make(chan struct{})}
	go v.loop()
	select {
	case <-v.ready:
		return v, nil
	case <-v.done:
		return nil, fmt.Errorf("bench: SSE stream ended before its snapshot: %v", v.err)
	}
}

func (v *viewer) loop() {
	defer close(v.done)
	sc := bufio.NewScanner(v.body)
	// A snapshot or resync frame is the whole listing on one data line.
	sc.Buffer(make([]byte, 0, 1<<20), 256<<20)
	var event []byte
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		v.bytes.Add(int64(len(line)) + 1)
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = append(event[:0], line[len("event: "):]...)
		case bytes.HasPrefix(line, []byte("data: ")):
			now := v.h.now()
			v.frames.Add(1)
			data := line[len("data: "):]
			switch string(event) {
			case "delta":
				var d frameState
				if v.err = json.Unmarshal(data, &d); v.err != nil {
					return
				}
				v.cover(d, now)
			case "snapshot", "resync":
				var ds []frameState
				if v.err = json.Unmarshal(data, &ds); v.err != nil {
					return
				}
				for _, d := range ds {
					v.cover(d, now)
				}
				if string(event) == "resync" {
					v.resyncs.Add(1)
				}
				if first {
					first = false
					close(v.ready)
				}
			}
		}
	}
	// The stream has no end of its own: anything but stop ending it is a
	// failure (stop's cancel surfaces here as a read error).
	if !v.stopping.Load() {
		if v.err = sc.Err(); v.err == nil {
			v.err = io.ErrUnexpectedEOF
		}
	}
}

func (v *viewer) cover(d frameState, now int64) {
	w := v.h.run[d.UUID]
	if w == nil {
		return
	}
	n := 0
	for w.seenInv < d.Invocations && w.seenInv < len(w.invEnds) {
		v.h.glassAt[w.invEnds[w.seenInv]] = now
		w.seenInv++
		n++
	}
	if d.Invocations > w.seenInv {
		w.seenInv = d.Invocations // more than were published: the final check reports it
	}
	v.covered.Add(int64(n))
}

func (v *viewer) stop() {
	v.stopping.Store(true)
	v.cancel()
	<-v.done
	v.body.Close()
}

// sinkSet is the in-process SSE fan-out, as internal/soak attaches it:
// the real stream handler writing onto socketless ResponseWriters, so a
// thousand subscribers cost no file descriptors.
type sinkSet struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// sink discards what the handler writes: the fan-out's cost is the
// handler's, and the real viewer does the counting.
type sink struct{ hdr http.Header }

func (s sink) Header() http.Header         { return s.hdr }
func (s sink) WriteHeader(int)             {}
func (s sink) Flush()                      {}
func (s sink) Write(p []byte) (int, error) { return len(p), nil }

func startSinks(dash *dashboard.Server, n int) *sinkSet {
	ctx, cancel := context.WithCancel(context.Background())
	set := &sinkSet{cancel: cancel}
	for i := 0; i < n; i++ {
		set.wg.Add(1)
		go func() {
			defer set.wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, "/api/stream/workflows", nil)
			if err != nil {
				return
			}
			dash.ServeHTTP(sink{hdr: make(http.Header)}, req)
		}()
	}
	return set
}

func (s *sinkSet) stop() {
	s.cancel()
	s.wg.Wait()
}

// read is one reader request.
type read struct {
	start, end int64
	bytes      int
	detail     bool // GET /api/workflow/{uuid}/jobs, else GET /api/workflows
	ok         bool
}

// reader is the closed-loop HTTP client of serve_mixed: one keep-alive
// connection, next request only after the previous body is fully read,
// alternating the views-backed listing and the snapshot-backed detail.
type reader struct {
	reads []read
	stopC chan struct{}
	done  chan struct{}
}

func startReader(h *harness, seed int64) *reader {
	// Detail requests cycle, in a seeded order, over workflows whose plan
	// event was preloaded: they exist in the store whenever they are asked
	// for.
	var uuids []string
	for _, w := range h.in.wfs {
		if int(w.lines[0]) < h.preload {
			uuids = append(uuids, w.uuid)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(uuids), func(i, j int) { uuids[i], uuids[j] = uuids[j], uuids[i] })

	r := &reader{stopC: make(chan struct{}), done: make(chan struct{})}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	go func() {
		defer close(r.done)
		defer client.CloseIdleConnections()
		for n := 0; ; n++ {
			select {
			case <-r.stopC:
				return
			default:
			}
			rd := read{detail: n%2 == 1 && len(uuids) > 0}
			url := h.baseURL + "/api/workflows"
			if rd.detail {
				url = h.baseURL + "/api/workflow/" + uuids[(n/2)%len(uuids)] + "/jobs"
			}
			rd.start = h.now()
			resp, err := client.Get(url)
			if err == nil {
				nb, cerr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				rd.bytes = int(nb)
				rd.ok = cerr == nil && resp.StatusCode == http.StatusOK
			}
			rd.end = h.now()
			r.reads = append(r.reads, rd)
		}
	}()
	return r
}

func (r *reader) stop() []read {
	close(r.stopC)
	<-r.done
	return r.reads
}

// waitGlass gives the flush ticker time to put the last commits on the
// glass: it returns once the viewer has seen every published inv.end
// line, or after 5 s (the final check then reports what is missing).
func (v *viewer) waitGlass(want int64) {
	deadline := time.Now().Add(5 * time.Second)
	for v.covered.Load() < want && time.Now().Before(deadline) {
		select {
		case <-v.done:
			return
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
}
