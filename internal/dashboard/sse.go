package dashboard

import (
	"fmt"
	"net/http"
	"strings"
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

// streamWorkflows streams every workflow's deltas and alerts. Protocol:
// one "snapshot" event (the full view listing) on connect, then "delta"
// and "alert" events as the loader commits and the flush ticker fires, and
// "health" events as SLO alerts change state (PublishAlert).
// If this client falls so far behind that the frames it missed have left
// the views' frame log, it gets a "resync" event carrying a fresh full
// listing — served from the view, never from a store scan — after which
// deltas resume.
func (s *Server) streamWorkflows(w http.ResponseWriter, r *http.Request) {
	s.stream(w, r, "")
}

// streamWorkflow streams one workflow's deltas and alerts, read from that
// workflow's own frame log, so per-workflow subscribers scale.
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
	sub := v.Subscribe(uuid)
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	writeSSE(w, "snapshot", v.AppendSnapshot(nil, uuid))
	fl.Flush()
	// Frames are written verbatim, every one the client has not had per
	// wake-up. Wait reports frames still pending before the client's
	// going, which makes "publish then disconnect" deterministic.
	for sub.Wait(r.Context()) {
		if _, err := sub.WriteTo(w); err != nil {
			return
		}
		fl.Flush()
	}
}
