package dashboard

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/views"
)

// handleStream registers a streaming handler with request-count
// instrumentation only. Unlike handle, it does NOT pin a store snapshot:
// SSE connections are long-lived, and a snapshot pinned for a
// connection's lifetime would block version GC for as long as a browser
// tab stays open (stampede_relstore_snapshot_oldest_age_seconds would
// grow without bound — the regression test holds a stream open and
// asserts it doesn't). Stream handlers serve exclusively from the
// materialized views; they never touch the store, not even for resync.
func (s *Server) handleStream(pattern string, h func(http.ResponseWriter, *http.Request)) {
	route := pattern[strings.IndexByte(pattern, ' ')+1:]
	reqs := mHTTPRequests.With(route)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		h(w, r)
	})
}

// writeSSE frames one server-sent event.
func writeSSE(w http.ResponseWriter, event string, data []byte) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// writeMsg emits one bus message. Broadcast flushes arrive on
// views.BatchTopic pre-framed as SSE wire bytes (one shared render per
// flush tick for every subscriber) and are written verbatim; per-workflow
// messages carry a single JSON payload and are framed here.
func writeMsg(w http.ResponseWriter, m views.Message) {
	if m.Key == views.BatchTopic {
		w.Write(m.Body)
		return
	}
	writeSSE(w, views.EventName(m.Key), m.Body)
}

// streamWorkflows streams every workflow's deltas and alerts. Protocol:
// one "snapshot" event (the full view listing) on connect, then "delta"
// and "alert" events as the loader commits and the flush ticker fires, and
// "health" events as SLO alerts change state (PublishAlert).
// If this client falls behind and its bounded buffer drops deltas, it
// gets a "resync" event carrying a fresh full listing — served from the
// view, never from a store scan — after which deltas resume.
func (s *Server) streamWorkflows(w http.ResponseWriter, r *http.Request) {
	s.stream(w, r, "")
}

// streamWorkflow streams one workflow's deltas and alerts, routed via a
// literal (exact-index) binding so per-workflow subscribers scale.
func (s *Server) streamWorkflow(w http.ResponseWriter, r *http.Request) {
	s.stream(w, r, r.PathValue("uuid"))
}

func (s *Server) stream(w http.ResponseWriter, r *http.Request, uuid string) {
	v := s.views
	if v == nil {
		s.httpError(w, http.StatusServiceUnavailable, "no materialized views attached")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sub, err := v.Subscribe(uuid)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	writeSSE(w, "snapshot", v.AppendSnapshot(nil, uuid))
	fl.Flush()

	ctx := r.Context()
	ch := sub.C()
	for {
		select {
		case <-ctx.Done():
			// Deliver what is already buffered (makes "publish then
			// disconnect" deterministic for clients and tests), then go.
			for {
				select {
				case m, ok := <-ch:
					if !ok {
						return
					}
					writeMsg(w, m)
				default:
					fl.Flush()
					return
				}
			}
		case m, ok := <-ch:
			if !ok {
				return
			}
			writeMsg(w, m)
			// Opportunistically coalesce whatever else is buffered into
			// this wake-up, bounded so one slow write loop cannot starve
			// the drop check.
		drain:
			for i := 0; i < 64; i++ {
				select {
				case m, ok := <-ch:
					if !ok {
						fl.Flush()
						return
					}
					writeMsg(w, m)
				default:
					break drain
				}
			}
			if sub.TakeDropped() > 0 {
				// The buffer overflowed since the last wake-up: some
				// deltas are gone. Deltas carry full state, so one fresh
				// view snapshot makes the client whole again.
				views.NoteResync()
				writeSSE(w, "resync", v.AppendSnapshot(nil, uuid))
			}
			fl.Flush()
		}
	}
}
