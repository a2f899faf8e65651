package health

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		b = []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))
	}
	w.Write(append(b, '\n'))
}

// Mount serves the engine on mux: liveness at /healthz, readiness at
// /readyz, the alert lifecycle at /api/alerts, the build and node shape at
// /api/buildinfo, and an on-demand diagnostics bundle at /debug/bundle.
// The dashboard (SetHealth) and a -debug-addr listener both mount it.
func (e *Engine) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", e.serveHealthz)
	mux.HandleFunc("GET /readyz", e.serveReadyz)
	mux.HandleFunc("GET /api/alerts", e.serveAlerts)
	mux.HandleFunc("GET /api/buildinfo", func(w http.ResponseWriter, r *http.Request) {
		e.mu.Lock()
		b := e.buildInfoLocked()
		e.mu.Unlock()
		writeJSON(w, http.StatusOK, b)
	})
	mux.HandleFunc("GET /debug/bundle", e.serveBundle)
}

// serveHealthz reports liveness: the process is up and the engine exists.
// Always 200 — readiness is /readyz's job.
func (e *Engine) serveHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(processStart).Seconds(),
	})
}

// serveReadyz reports readiness: 200 while no ready-gating objective
// fires, 503 (with the firing set) otherwise — the signal a federation
// router or load balancer keys on. Lock-free on the happy path.
func (e *Engine) serveReadyz(w http.ResponseWriter, r *http.Request) {
	if e.Ready() {
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
		return
	}
	var firing []Alert
	for _, a := range e.Active() {
		if a.State == "firing" {
			firing = append(firing, a)
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"ready":  false,
		"firing": firing,
	})
}

// serveAlerts serves the alert lifecycle state: currently active alerts,
// the retained transition ring, and the installed objectives.
func (e *Engine) serveAlerts(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"active":     e.Active(),
		"recent":     e.Recent(),
		"objectives": e.Objectives(),
	})
}

// serveBundle builds a fresh diagnostics bundle on demand and serves it as
// a tar.gz download — `stampede-doctor -addr` fetches this.
func (e *Engine) serveBundle(w http.ResponseWriter, r *http.Request) {
	e.mu.Lock()
	data, id, err := e.bundleLocked(nil)
	e.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=bundle-%s.tar.gz", id))
	w.Header().Set("X-Bundle-ID", id)
	w.Write(data)
}
