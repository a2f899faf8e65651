// pegasus-run plans and executes a Pegasus-style workflow on the Condor
// substrate with Stampede monitoring: abstract workflow in, normalized BP
// event stream out.
//
//	pegasus-run -dax diamond -log run.bp.log
//	pegasus-run -dax sweep -tasks 100 -cluster 8 -failure 0.1 -retries 3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/condor"
	"repro/internal/pegasus"
	"repro/internal/telemetry"
	"repro/internal/triana"
	"repro/internal/wfclock"
)

func main() { os.Exit(run()) }

// run returns the exit status: 2 when the workflow failed, 1 on any other
// error, including one the event sinks report when they are closed.
func run() (code int) {
	var (
		daxName  = flag.String("dax", "diamond", "abstract workflow: diamond or sweep")
		tasks    = flag.Int("tasks", 50, "sweep: number of parallel worker tasks")
		runtime  = flag.Float64("runtime", 30, "modeled task runtime in seconds")
		cluster  = flag.Int("cluster", 0, "horizontal clustering factor (0 = none)")
		retries  = flag.Int("retries", 2, "max retries per job")
		failure  = flag.Float64("failure", 0, "per-instance failure probability")
		rescue   = flag.Int("rescue", 0, "restart failed workflows up to this many times (rescue DAGs)")
		seed     = flag.Int64("seed", 1, "failure-injection seed")
		hosts    = flag.Int("hosts", 4, "execution hosts on the site")
		slots    = flag.Int("slots", 2, "slots per host")
		scale    = flag.Float64("scale", 1000, "virtual-clock speed-up")
		logPath  = flag.String("log", "", "write BP events to this file")
		brokerTo = flag.String("broker", "", "publish events to this TCP broker")
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

	var dax *pegasus.DAX
	switch *daxName {
	case "diamond":
		dax = pegasus.Diamond(*runtime)
	case "sweep":
		dax = pegasus.Sweep("sweep", *tasks, *runtime)
	default:
		return fail("unknown dax %q", *daxName)
	}
	ew, err := pegasus.Plan(dax, pegasus.PlanConfig{
		Site:        "cluster",
		ClusterSize: *cluster,
		StageIn:     true,
		StageOut:    true,
		MaxRetries:  *retries,
	})
	if err != nil {
		return fail("plan: %v", err)
	}
	fmt.Fprintf(os.Stderr, "planned %s: %d tasks -> %d jobs\n", dax.Label, len(dax.Tasks), len(ew.Jobs))

	app, closeAppenders, err := triana.OpenAppenders(*logPath, *brokerTo)
	if err != nil {
		return fail("%v", err)
	}
	defer func() {
		if err := closeAppenders(); err != nil {
			code = max(code, fail("events not all delivered: %v", err))
		}
	}()

	clk := wfclock.NewScaled(time.Now().UTC().Truncate(time.Second), *scale)
	hostSpecs := make([]condor.HostSpec, *hosts)
	for i := range hostSpecs {
		hostSpecs[i] = condor.HostSpec{
			Hostname: fmt.Sprintf("node%d", i+1),
			IP:       fmt.Sprintf("10.0.0.%d", i+1),
			Slots:    *slots,
		}
	}
	pool, err := condor.NewPool(clk, 2*time.Second, []condor.Site{{Name: "cluster", Hosts: hostSpecs}}, nil)
	if err != nil {
		return fail("%v", err)
	}
	defer pool.Close()

	eng, err := pegasus.NewEngine(pegasus.ExecConfig{
		Pool: pool, Clock: clk, Appender: app,
		SubmitHost: "submit-host", FailureRate: *failure, Seed: *seed,
	})
	if err != nil {
		return fail("%v", err)
	}
	var report *pegasus.RunReport
	if *rescue > 0 {
		report, err = eng.RunRescue(context.Background(), ew, *rescue)
	} else {
		report, err = eng.Run(context.Background(), ew)
	}
	if err != nil {
		return fail("run: %v", err)
	}
	fmt.Fprintf(os.Stderr, "workflow %s: %d succeeded, %d failed, %d retries, %d restarts, %s virtual\n",
		report.WfUUID, report.Succeeded, report.Failed, report.Retries, report.Restarts,
		report.Elapsed.Round(time.Second))
	if report.Status != 0 {
		return 2
	}
	return 0
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "pegasus-run: "+format+"\n", args...)
	return 1
}
