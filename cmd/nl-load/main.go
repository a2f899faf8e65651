// nl-load is the loader CLI: it reads NetLogger BP event streams from log
// files, validates them against the Stampede schema, and loads them into a
// relational archive (a store directory) — the reproduction of the
// published nl_load + stampede_loader invocation:
//
//	nl-load -db test.db workflow.bp.log
//
// With -listen it is instead the live monitoring node: engines publish to
// its bus over TCP (triana-run / pegasus-run -broker ADDR), its loader
// folds every event into the store and the materialized views as it
// arrives, and -http serves the dashboard, its SSE streams and the node's
// health endpoints. SIGINT drains the bus and stops it.
//
//	nl-load -db live.db -shards 4 -listen :7000 -http :8080
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/loader"
	"repro/internal/relstore"
	"repro/internal/telemetry"
)

// drainTimeout bounds how long an interrupted node waits for its loader to
// fold in what the bus already holds.
const drainTimeout = 30 * time.Second

func main() {
	var (
		dbPath    = flag.String("db", "stampede.db", "archive store directory (created with one partition per shard if absent); -listen fsyncs its WAL on every loader sync, a file load never fsyncs")
		listen    = flag.String("listen", "", "run as the live node: accept engines' events on this bus address instead of reading files")
		httpAddr  = flag.String("http", "", "with -listen: serve the dashboard, its SSE streams and health on this address")
		batchSize = flag.Int("batch", loader.DefaultBatchSize, "insert batch size")
		shards    = flag.Int("shards", 1, "parallel apply shards (events route by workflow id)")
		lenient   = flag.Bool("lenient", false, "skip malformed/invalid events instead of failing")
		verbose   = flag.Bool("v", false, "print per-source statistics")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/pprof and the health endpoints (/healthz, /readyz, /api/alerts, /api/buildinfo, /debug/bundle) on this address (empty = off)")
		bundleDir = flag.String("bundle-dir", ".", "firing alerts write diagnostics bundles here (empty = off)")
	)
	flag.Parse()
	switch {
	case *listen == "" && *httpAddr != "":
		fatal("-http serves a live node; it needs -listen")
	case *listen == "" && flag.NArg() == 0:
		fatal("no input files and no -listen address; nothing to load")
	case *listen != "" && flag.NArg() > 0:
		fatal("-listen takes no input files")
	}
	var total loader.Stats
	if *listen != "" {
		total = runNode(core.Config{
			DatabasePath: *dbPath,
			BatchSize:    *batchSize,
			Shards:       *shards,
			Lenient:      *lenient,
			BundleDir:    *bundleDir,
		}, *listen, *httpAddr, *debugAddr)
	} else {
		total = loadFiles(*dbPath, loader.Options{
			BatchSize: *batchSize,
			Lenient:   *lenient,
			Shards:    *shards,
		}, flag.Args(), *bundleDir, *debugAddr, *verbose)
	}
	fmt.Printf("loaded %d events (%.0f events/s), invalid=%d unknown=%d malformed=%d\n",
		total.Loaded, total.Rate(), total.Invalid, total.Unknown, total.Malformed)
}

// loadFiles is the paper's nl_load over files: one loader, no bus, no views.
func loadFiles(dbPath string, opts loader.Options, files []string, bundleDir, debugAddr string, verbose bool) loader.Stats {
	// A new directory gets one partition per apply shard, so shards and
	// partition writers line up 1:1; an existing one keeps its own count.
	arch, err := archive.OpenDir(dbPath, relstore.Options{Partitions: opts.Shards})
	if err != nil {
		fatal("open archive: %v", err)
	}
	defer arch.Close()
	eng := health.Standard(health.Config{BundleDir: bundleDir}, health.Sources{Store: arch.Store()})
	defer eng.Close()
	defer serveDebug(debugAddr, eng)()
	l, err := loader.New(arch, opts)
	if err != nil {
		fatal("%v", err)
	}
	for _, path := range files {
		stats, err := l.LoadFile(path)
		if err != nil {
			fatal("loading %s: %v", path, err)
		}
		if verbose {
			fmt.Printf("%s: %s\n", path, stats.String())
		}
	}
	return l.TotalStats()
}

// runNode runs the live pipeline core.Start assembles until SIGINT, then
// closes the bus listener, lets the loader fold in what the bus already
// holds and stops.
func runNode(cfg core.Config, listen, httpAddr, debugAddr string) loader.Stats {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	st, err := core.Start(cfg)
	if err != nil {
		fatal("%v", err)
	}
	busAddr, closeBus, err := st.Serve(listen)
	if err != nil {
		st.Stop()
		fatal("%v", err)
	}
	defer serveDebug(debugAddr, st.Health())()
	if httpAddr != "" {
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			fatal("%v", err)
		}
		hs := &http.Server{Handler: st.Dashboard()}
		go func() {
			if err := hs.Serve(ln); err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "nl-load: dashboard: %v\n", err)
			}
		}()
		defer hs.Close()
		fmt.Printf("dashboard on http://%s\n", ln.Addr())
	}
	fmt.Printf("bus on %s (interrupt to stop)\n", busAddr)

	<-ctx.Done()
	stop() // a second interrupt kills the drain below
	closeBus()
	drain, cancel := context.WithTimeout(context.Background(), drainTimeout)
	if err := st.WaitQuiesced(drain); err != nil {
		fmt.Fprintf(os.Stderr, "nl-load: draining the bus: %v\n", err)
	}
	cancel()
	if d := st.Broker().Stats().Dropped; d > 0 {
		fmt.Fprintf(os.Stderr, "nl-load: the bus dropped %d events on a full queue\n", d)
	}
	total, err := st.Stop()
	if err != nil {
		fatal("%v", err)
	}
	return total
}

// serveDebug serves /metrics, pprof and eng's health endpoints on addr
// (nothing when addr is empty) and returns the function that stops it.
func serveDebug(addr string, eng *health.Engine) (stop func() error) {
	if addr == "" {
		return func() error { return nil }
	}
	bound, stop, err := telemetry.StartDebugServer(addr, eng.Mount)
	if err != nil {
		fatal("debug server: %v", err)
	}
	fmt.Printf("metrics, pprof and health on http://%s\n", bound)
	return stop
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nl-load: "+format+"\n", args...)
	os.Exit(1)
}
