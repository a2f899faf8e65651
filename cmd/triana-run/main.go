// triana-run executes Triana workflows with Stampede monitoring. It can
// run the paper's full DART parameter-sweep experiment (306 executions in
// 16-task bundles over a simulated TrianaCloud) or a small demo pipeline,
// writing the event stream to a BP log file and/or a TCP broker.
//
//	triana-run -workflow dart -log dart.bp.log -scale 1000
//	triana-run -workflow demo -broker 127.0.0.1:7000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bp"
	"repro/internal/dart"
	"repro/internal/mq"
	"repro/internal/telemetry"
	"repro/internal/triana"
	"repro/internal/trianacloud"
	"repro/internal/wfclock"
)

func main() {
	var (
		workflow = flag.String("workflow", "dart", "workflow to run: dart or demo")
		logPath  = flag.String("log", "", "write BP events to this file")
		broker   = flag.String("broker", "", "also publish events to this TCP broker")
		scale    = flag.Float64("scale", 1000, "virtual-clock speed-up factor")
		nodes    = flag.Int("nodes", 8, "dart: TrianaCloud worker nodes")
		perBun   = flag.Int("bundle", 16, "dart: executions per bundle")
		conc     = flag.Int("concurrent", 4, "dart: concurrent tasks per node")
		realWork = flag.Bool("real-shs", false, "dart: run the real SHS computation in every exec task")
		debug    = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address (empty = off)")
	)
	flag.Parse()

	if *debug != "" {
		addr, stopDebug, err := telemetry.StartDebugServer(*debug)
		if err != nil {
			fatal("debug server: %v", err)
		}
		defer stopDebug()
		fmt.Fprintf(os.Stderr, "metrics and pprof on http://%s\n", addr)
	}

	appenders, closeAll, err := buildAppenders(*logPath, *broker)
	if err != nil {
		fatal("%v", err)
	}
	defer closeAll()

	epoch := time.Now().UTC().Truncate(time.Second)
	clk := wfclock.NewScaled(epoch, *scale)

	switch *workflow {
	case "dart":
		runDART(appenders, clk, *nodes, *perBun, *conc, !*realWork)
	case "demo":
		runDemo(appenders, clk)
	default:
		fatal("unknown workflow %q (want dart or demo)", *workflow)
	}
}

func buildAppenders(logPath, brokerAddr string) (bp.Appender, func(), error) {
	var multi triana.MultiAppender
	var closers []func()
	if logPath != "" {
		f, err := os.Create(logPath)
		if err != nil {
			return nil, nil, err
		}
		w := bp.NewWriter(f)
		multi = append(multi, &triana.WriterAppender{W: w})
		closers = append(closers, func() {
			w.Flush()
			f.Close()
		})
	}
	if brokerAddr != "" {
		client, err := mq.Dial(brokerAddr)
		if err != nil {
			return nil, nil, err
		}
		multi = append(multi, &triana.ClientAppender{Client: client})
		closers = append(closers, func() { client.Close() })
	}
	if len(multi) == 0 {
		f := os.Stdout
		w := bp.NewWriter(f)
		multi = append(multi, &triana.WriterAppender{W: w})
		closers = append(closers, func() { w.Flush() })
	}
	return multi, func() {
		for _, c := range closers {
			c()
		}
	}, nil
}

func runDART(app bp.Appender, clk wfclock.Clock, nNodes, perBundle, conc int, simulateOnly bool) {
	workers := make([]*trianacloud.Node, nNodes)
	for i := range workers {
		workers[i] = &trianacloud.Node{
			Hostname: fmt.Sprintf("trianaworker%d", i+1),
			Site:     "trianacloud",
			Clock:    clk,
			Appender: app,
		}
	}
	cloud, err := trianacloud.NewBroker("127.0.0.1:0", workers)
	if err != nil {
		fatal("%v", err)
	}
	defer cloud.Close()

	commands := strings.Split(strings.TrimSpace(dart.InputFile()), "\n")
	fmt.Fprintf(os.Stderr, "running DART: %d executions, %d per bundle, %d nodes x %d slots\n",
		len(commands), perBundle, nNodes, conc)

	cfg := trianacloud.DARTConfig{
		Commands:             commands,
		TasksPerBundle:       perBundle,
		MaxConcurrentPerNode: conc,
		SimulateOnly:         simulateOnly,
		Broker:               &trianacloud.Client{BaseURL: cloud.URL()},
		Appender:             app,
		Clock:                clk,
		Hostname:             "desktop",
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	start := clk.Now()
	result, err := trianacloud.RunDART(ctx, cfg, cloud)
	if err != nil {
		fatal("dart run: %v", err)
	}
	fmt.Fprintf(os.Stderr, "workflow %s: %d bundles finished in %s virtual\n",
		result.RootUUID, len(result.Bundles), clk.Since(start).Round(time.Second))
}

func runDemo(app bp.Appender, clk wfclock.Clock) {
	g := triana.NewTaskGraph("demo")
	read := g.MustAddTask("read", &triana.WorkUnit{UnitName: "read-input", Desc: "file", Duration: time.Second, Clock: clk})
	work := g.MustAddTask("work", &triana.WorkUnit{UnitName: "analyze", Desc: "processing", Duration: 30 * time.Second, Clock: clk})
	out := g.MustAddTask("write", &triana.WorkUnit{UnitName: "write-output", Desc: "file", Duration: time.Second, Clock: clk})
	g.Connect(read, work)
	g.Connect(work, out)
	log := triana.NewStampedeLog(app)
	sched := triana.NewScheduler(g, triana.Options{Mode: triana.SingleStep, Clock: clk, Listeners: []triana.Listener{log}})
	report, err := sched.Run(context.Background())
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "workflow %s: %d tasks completed, %d events\n",
		report.RunUUID, report.Completed, log.Appended())
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "triana-run: "+format+"\n", args...)
	os.Exit(1)
}
