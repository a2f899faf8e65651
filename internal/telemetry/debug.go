package telemetry

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// NewDebugMux returns a mux exposing the Default registry at /metrics and
// the net/http/pprof profiles under /debug/pprof/. The long-running cmds
// mount this behind their -debug-addr flag so a production incident can
// be profiled without a restart.
func NewDebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartDebugServer serves NewDebugMux on addr in a background goroutine,
// after each mount has added its own handlers to the mux (a health
// engine's Mount, say). It returns the bound address (useful with ":0")
// and a stop function.
func StartDebugServer(addr string, mounts ...func(*http.ServeMux)) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := NewDebugMux()
	for _, mount := range mounts {
		mount(mux)
	}
	srv := &http.Server{Handler: mux}
	go func() {
		// ErrServerClosed after stop; anything else has no one to tell.
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), srv.Close, nil
}
