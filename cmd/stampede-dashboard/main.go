// stampede-dashboard serves the lightweight web dashboard over an archive
// database: an HTML status page plus a JSON API for workflows, jobs,
// statistics, progress curves and analyzer reports.
//
//	stampede-dashboard -db test.db -listen :8080
//
// It reads the store directory once, read-only, and shows it as it was:
// the viewer of a closed (or finished) run. A live run is watched on the
// node that loads it, `nl-load -listen ... -http ...`.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"repro/internal/archive"
	"repro/internal/dashboard"
	"repro/internal/query"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/views"
)

func main() {
	var (
		dbPath      = flag.String("db", "stampede.db", "archive store directory")
		listen      = flag.String("listen", ":8080", "address to serve on")
		debugAddr   = flag.String("debug-addr", "", "serve /debug/pprof (and a second /metrics) on this address (empty = off)")
		traceSample = flag.Int("trace-sample", trace.DefaultSampleEvery, "trace 1 in N events end to end (0 disables tracing)")
	)
	flag.Parse()
	trace.SetSampleEvery(*traceSample)

	// A read-only load: a loader may be writing this directory.
	arch, err := archive.LoadDir(*dbPath)
	if err != nil {
		fatal("%v", err)
	}
	// Materialized views over the loaded state: the listing and the SSE
	// endpoints serve O(delta) instead of scanning per request.
	v := views.New(views.Options{})
	sn := arch.Snapshot()
	err = v.BuildFromSnapshot(sn)
	sn.Close()
	if err != nil {
		fatal("%v", err)
	}
	srv := dashboard.New(query.New(arch))
	srv.SetViews(v)

	// /metrics is always part of the dashboard mux itself; -debug-addr adds
	// pprof on a separate listener that can stay firewalled off.
	if *debugAddr != "" {
		addr, stopDebug, err := telemetry.StartDebugServer(*debugAddr)
		if err != nil {
			fatal("debug server: %v", err)
		}
		defer stopDebug()
		fmt.Printf("metrics and pprof on http://%s\n", addr)
	}

	fmt.Printf("dashboard on http://%s (db %s)\n", *listen, *dbPath)
	if err := http.ListenAndServe(*listen, srv); err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stampede-dashboard: "+format+"\n", args...)
	os.Exit(1)
}
