// nl-load is the loader CLI: it reads NetLogger BP event streams from log
// files or subscribes to a broker queue, validates them against the
// Stampede schema, and loads them into a relational archive (a store
// directory) — the reproduction of the published nl_load +
// stampede_loader invocations:
//
//	nl-load -db test.db workflow.bp.log
//	nl-load -db test.db -amqp 127.0.0.1:7000 -queue stampede
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/archive"
	"repro/internal/health"
	"repro/internal/loader"
	"repro/internal/mq"
	"repro/internal/relstore"
	"repro/internal/telemetry"
)

func main() {
	var (
		dbPath     = flag.String("db", "stampede.db", "archive store directory (created with one partition per shard if absent)")
		amqpAddr   = flag.String("amqp", "", "broker address to subscribe to instead of reading files")
		queueName  = flag.String("queue", "stampede", "queue to consume from the broker")
		topic      = flag.String("topic", "stampede.#", "topic binding for the queue")
		batchSize  = flag.Int("batch", loader.DefaultBatchSize, "insert batch size")
		shards     = flag.Int("shards", 1, "parallel apply shards (events route by workflow id)")
		noValidate = flag.Bool("no-validate", false, "skip schema validation")
		lenient    = flag.Bool("lenient", false, "skip malformed/invalid events instead of failing")
		verbose    = flag.Bool("v", false, "print per-source statistics")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/pprof, /healthz and /readyz on this address (empty = off)")
		bundleDir  = flag.String("bundle-dir", ".", "firing alerts write diagnostics bundles here (empty = off)")
	)
	flag.Parse()

	// A new directory gets one partition per apply shard, so shards and
	// partition writers line up 1:1; an existing one keeps its own count.
	arch, err := archive.OpenDir(*dbPath, relstore.Options{Partitions: *shards})
	if err != nil {
		fatal("open archive: %v", err)
	}
	defer arch.Close()

	// The loader node is where durability SLOs live: WAL fsync latency,
	// checkpoint age, and apply/commit p99 all come from this process.
	eng := health.New(health.Config{
		BundleDir:  *bundleDir,
		Partitions: health.PartitionsOf(arch.Store()),
	})
	defer eng.Close()
	eng.RegisterStandard(health.Sources{Store: arch.Store()})
	if _, err := eng.AddObjectives(health.DefaultObjectives()...); err != nil {
		fatal("objectives: %v", err)
	}
	eng.Start()
	eng.AttachDebug()

	if *debugAddr != "" {
		addr, stopDebug, derr := telemetry.StartDebugServer(*debugAddr)
		if derr != nil {
			fatal("debug server: %v", derr)
		}
		defer stopDebug()
		fmt.Printf("metrics, pprof and health on http://%s\n", addr)
	}
	l, err := loader.New(arch, loader.Options{
		BatchSize: *batchSize,
		Validate:  !*noValidate,
		Lenient:   *lenient,
		Shards:    *shards,
	})
	if err != nil {
		fatal("%v", err)
	}

	if *amqpAddr != "" {
		consumeBroker(l, *amqpAddr, *queueName, *topic)
	} else {
		if flag.NArg() == 0 {
			fatal("no input files and no -amqp source; nothing to load")
		}
		for _, path := range flag.Args() {
			stats, err := l.LoadFile(path)
			if err != nil {
				fatal("loading %s: %v", path, err)
			}
			if *verbose {
				fmt.Printf("%s: %s\n", path, stats.String())
			}
		}
	}
	total := l.TotalStats()
	fmt.Printf("loaded %d events (%.0f events/s), invalid=%d unknown=%d malformed=%d\n",
		total.Loaded, total.Rate(), total.Invalid, total.Unknown, total.Malformed)
}

func consumeBroker(l *loader.Loader, addr, queue, topic string) {
	client, err := mq.Dial(addr)
	if err != nil {
		fatal("%v", err)
	}
	if err := client.DeclareQueue(queue, true); err != nil {
		fatal("declare queue: %v", err)
	}
	if err := client.Bind(queue, topic); err != nil {
		fatal("bind: %v", err)
	}
	msgs, err := client.Subscribe(queue)
	if err != nil {
		fatal("subscribe: %v", err)
	}
	fmt.Printf("consuming queue %q on %s (interrupt to stop)\n", queue, addr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	stats, err := l.Consume(ctx, msgs)
	if err != nil && ctx.Err() == nil {
		fatal("consume: %v", err)
	}
	fmt.Printf("consumed for %s: %s\n", time.Since(start).Round(time.Second), stats.String())
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nl-load: "+format+"\n", args...)
	os.Exit(1)
}
