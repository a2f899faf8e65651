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
// arrives, and -http serves the dashboard, its SSE streams and the health
// endpoints from those views. SIGINT drains the bus and stops it.
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
		dbPath     = flag.String("db", "stampede.db", "archive store directory (created with one partition per shard if absent)")
		listen     = flag.String("listen", "", "run as the live node: accept engines' events on this bus address instead of reading files")
		httpAddr   = flag.String("http", "", "with -listen: serve the dashboard, its SSE streams and health on this address")
		batchSize  = flag.Int("batch", loader.DefaultBatchSize, "insert batch size")
		shards     = flag.Int("shards", 1, "parallel apply shards (events route by workflow id)")
		noValidate = flag.Bool("no-validate", false, "skip schema validation")
		lenient    = flag.Bool("lenient", false, "skip malformed/invalid events instead of failing")
		verbose    = flag.Bool("v", false, "print per-source statistics")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/pprof, /healthz and /readyz on this address (empty = off)")
		bundleDir  = flag.String("bundle-dir", ".", "firing alerts write diagnostics bundles here (empty = off)")
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
			DatabasePath:   *dbPath,
			BatchSize:      *batchSize,
			Shards:         *shards,
			SkipValidation: *noValidate,
			Lenient:        *lenient,
		}, *listen, *httpAddr, *bundleDir, *debugAddr)
	} else {
		total = loadFiles(*dbPath, loader.Options{
			BatchSize: *batchSize,
			Validate:  !*noValidate,
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
	_, stopHealth := startHealth(bundleDir, debugAddr, health.Sources{Store: arch.Store()}, nil)
	defer stopHealth()
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
func runNode(cfg core.Config, listen, httpAddr, bundleDir, debugAddr string) loader.Stats {
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
	dash := st.Dashboard()
	eng, stopHealth := startHealth(bundleDir, debugAddr, health.Sources{Store: st.Archive().Store(), Broker: st.Broker()}, dash.PublishAlert)
	defer stopHealth()
	dash.SetHealth(eng)
	if httpAddr != "" {
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			fatal("%v", err)
		}
		hs := &http.Server{Handler: dash}
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

// startHealth runs the SLO engine over the process's pipeline — the loader
// is where durability SLOs live (WAL fsync latency, checkpoint age,
// apply/commit p99), and a node adds the bus's — and, with debugAddr set,
// serves it there beside /metrics and pprof. onAlert, if set, receives
// every alert transition. stop shuts down both.
func startHealth(bundleDir, debugAddr string, src health.Sources, onAlert func(health.Alert)) (eng *health.Engine, stop func()) {
	eng = health.New(health.Config{
		BundleDir:  bundleDir,
		Partitions: health.PartitionsOf(src.Store),
		OnAlert:    onAlert,
	})
	eng.RegisterStandard(src)
	if _, err := eng.AddObjectives(health.DefaultObjectives()...); err != nil {
		fatal("objectives: %v", err)
	}
	eng.Start()
	eng.AttachDebug()
	if debugAddr == "" {
		return eng, eng.Close
	}
	addr, stopDebug, err := telemetry.StartDebugServer(debugAddr)
	if err != nil {
		fatal("debug server: %v", err)
	}
	fmt.Printf("metrics, pprof and health on http://%s\n", addr)
	return eng, func() {
		stopDebug()
		eng.Close()
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nl-load: "+format+"\n", args...)
	os.Exit(1)
}
