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
	"repro/internal/telemetry"
	"repro/internal/triana"
	"repro/internal/trianacloud"
	"repro/internal/wfclock"
)

func main() { os.Exit(run()) }

// run returns the exit status: 1 when the workflow or its monitoring
// failed, including an error the event sinks report when they are closed.
func run() (code int) {
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
			return fail("debug server: %v", err)
		}
		defer stopDebug()
		fmt.Fprintf(os.Stderr, "metrics and pprof on http://%s\n", addr)
	}

	appenders, closeAppenders, err := triana.OpenAppenders(*logPath, *broker)
	if err != nil {
		return fail("%v", err)
	}
	defer func() {
		if err := closeAppenders(); err != nil {
			code = max(code, fail("events not all delivered: %v", err))
		}
	}()

	epoch := time.Now().UTC().Truncate(time.Second)
	clk := wfclock.NewScaled(epoch, *scale)

	switch *workflow {
	case "dart":
		err = runDART(appenders, clk, *nodes, *perBun, *conc, !*realWork)
	case "demo":
		err = runDemo(appenders, clk)
	default:
		err = fmt.Errorf("unknown workflow %q (want dart or demo)", *workflow)
	}
	if err != nil {
		return fail("%v", err)
	}
	return 0
}

func runDART(app bp.Appender, clk wfclock.Clock, nNodes, perBundle, conc int, simulateOnly bool) error {
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
		return err
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
		return fmt.Errorf("dart run: %w", err)
	}
	fmt.Fprintf(os.Stderr, "workflow %s: %d bundles finished in %s virtual\n",
		result.RootUUID, len(result.Bundles), clk.Since(start).Round(time.Second))
	return nil
}

func runDemo(app bp.Appender, clk wfclock.Clock) error {
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
		return err
	}
	fmt.Fprintf(os.Stderr, "workflow %s: %d tasks completed, %d events\n",
		report.RunUUID, report.Completed, log.Appended())
	return nil
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "triana-run: "+format+"\n", args...)
	return 1
}
