// stampede-dashboard serves the lightweight web dashboard over an archive
// database: an HTML status page plus a JSON API for workflows, jobs,
// statistics, progress curves and analyzer reports.
//
//	stampede-dashboard -db test.db -listen :8080
//
// With -follow the store directory is re-read periodically so a dashboard
// can track a database an nl-load process is still writing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/dashboard"
	"repro/internal/health"
	"repro/internal/query"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/views"
)

// reloadingHandler swaps in a freshly replayed archive on an interval,
// tearing down the previous generation's resources (the materialized
// views' flush goroutine) once it is out of the serve path.
type reloadingHandler struct {
	mu      sync.RWMutex
	current http.Handler
	cleanup func()
}

func (h *reloadingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.RLock()
	cur := h.current
	h.mu.RUnlock()
	cur.ServeHTTP(w, r)
}

func (h *reloadingHandler) swap(next http.Handler, cleanup func()) {
	h.mu.Lock()
	old := h.cleanup
	h.current = next
	h.cleanup = cleanup
	h.mu.Unlock()
	// In-flight requests against the old generation may still be running;
	// views.Close only stops the flusher and leaves the state readable, so
	// tearing down immediately after the swap is safe.
	if old != nil {
		old()
	}
}

func main() {
	var (
		dbPath      = flag.String("db", "stampede.db", "archive store directory")
		listen      = flag.String("listen", ":8080", "address to serve on")
		follow      = flag.Duration("follow", 0, "re-read the store directory at this interval (0 = once)")
		debugAddr   = flag.String("debug-addr", "", "serve /debug/pprof (and a second /metrics) on this address (empty = off)")
		traceSample = flag.Int("trace-sample", trace.DefaultSampleEvery, "trace 1 in N events end to end (0 disables tracing)")
		bundleDir   = flag.String("bundle-dir", ".", "firing alerts write diagnostics bundles here (empty = off)")
	)
	flag.Parse()
	trace.SetSampleEvery(*traceSample)

	// One health engine outlives every -follow reload generation; alert
	// transitions are pushed onto whichever views bus currently serves the
	// SSE stream, so connected dashboards see them live.
	var curViews atomic.Pointer[views.Views]
	eng := health.New(health.Config{
		BundleDir: *bundleDir,
		OnAlert: func(a health.Alert) {
			if v := curViews.Load(); v != nil {
				if js, err := json.Marshal(a); err == nil {
					v.PublishFrame("health", js)
				}
			}
		},
	})
	defer eng.Close()
	eng.RegisterStandard(health.Sources{})
	if _, err := eng.AddObjectives(health.DefaultObjectives()...); err != nil {
		fmt.Fprintf(os.Stderr, "stampede-dashboard: objectives: %v\n", err)
		os.Exit(1)
	}
	eng.Start()
	eng.AttachDebug()

	// /metrics is always part of the dashboard mux itself; -debug-addr adds
	// pprof on a separate listener that can stay firewalled off.
	if *debugAddr != "" {
		addr, stopDebug, err := telemetry.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stampede-dashboard: debug server: %v\n", err)
			os.Exit(1)
		}
		defer stopDebug()
		fmt.Printf("pprof and health on http://%s\n", addr)
	}

	load := func() (http.Handler, func(), error) {
		// A read-only load: a loader may be writing this directory.
		arch, err := archive.LoadDir(*dbPath)
		if err != nil {
			return nil, nil, err
		}
		// Materialized views over the replayed state: the listing and the
		// SSE endpoints serve O(delta) instead of scanning per request.
		v := views.New(views.Options{})
		sn := arch.Snapshot()
		err = v.BuildFromSnapshot(sn)
		sn.Close()
		if err != nil {
			v.Close()
			return nil, nil, err
		}
		srv := dashboard.New(query.New(arch))
		srv.SetViews(v)
		srv.SetHealth(eng)
		curViews.Store(v)
		return srv, v.Close, nil
	}
	first, firstCleanup, err := load()
	if err != nil {
		fmt.Fprintf(os.Stderr, "stampede-dashboard: %v\n", err)
		os.Exit(1)
	}
	h := &reloadingHandler{current: first, cleanup: firstCleanup}
	if *follow > 0 {
		go func() {
			for range time.Tick(*follow) {
				next, cleanup, err := load()
				if err != nil {
					// The previous generation keeps serving; a load can
					// lose its race with the loader's checkpoint.
					fmt.Fprintf(os.Stderr, "stampede-dashboard: reload: %v\n", err)
					continue
				}
				h.swap(next, cleanup)
			}
		}()
	}
	fmt.Printf("dashboard on http://%s (db %s)\n", *listen, *dbPath)
	if err := http.ListenAndServe(*listen, h); err != nil {
		fmt.Fprintf(os.Stderr, "stampede-dashboard: %v\n", err)
		os.Exit(1)
	}
}
