// Pegasus through the same monitoring stack: plan an abstract workflow
// onto a Condor site (with clustering), execute it with injected
// failures and retries, and troubleshoot the failures with the analyzer —
// demonstrating that the Stampede tools are engine-agnostic.
//
//	go run ./examples/pegasus-diamond
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/pegasus"
	"repro/internal/stats"
	"repro/internal/wfclock"
)

func main() {
	st, err := core.Start(core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Stop()

	// Abstract workflow: 24 parallel analyses fenced by prepare/collect.
	dax := pegasus.Sweep("analysis-sweep", 24, 30)
	ew, err := pegasus.Plan(dax, pegasus.PlanConfig{
		Site:        "cluster",
		ClusterSize: 6, // many-to-many task-to-job mapping
		StageIn:     true,
		StageOut:    true,
		MaxRetries:  2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned %q: %d abstract tasks -> %d executable jobs (clustering 6)\n",
		dax.Label, len(dax.Tasks), len(ew.Jobs))

	clk := wfclock.NewScaled(time.Now().UTC(), 1000)
	pool, err := condor.NewPool(clk, 2*time.Second, []condor.Site{{
		Name: "cluster",
		Hosts: []condor.HostSpec{
			{Hostname: "node1", IP: "10.0.0.1", Slots: 2},
			{Hostname: "node2", IP: "10.0.0.2", Slots: 2},
			{Hostname: "node3", IP: "10.0.0.3", Slots: 2},
		},
	}}, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()

	eng, err := pegasus.NewEngine(pegasus.ExecConfig{
		Pool:        pool,
		Clock:       clk,
		Appender:    st.Appender(),
		SubmitHost:  "submit.example.org",
		FailureRate: 0.25, // every 4th instance fails; DAGMan retries
		Seed:        42,
	})
	if err != nil {
		log.Fatal(err)
	}
	report, err := eng.Run(context.Background(), ew)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run %s: %d succeeded, %d failed, %d retries, %s virtual wall time\n\n",
		report.WfUUID, report.Succeeded, report.Failed, report.Retries,
		report.Elapsed.Round(time.Second))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := st.WaitQuiesced(ctx); err != nil {
		log.Fatal(err)
	}

	summary, err := st.Statistics(report.WfUUID, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(summary.Render())

	rows, err := st.Breakdown(report.WfUUID, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbreakdown by transformation:")
	fmt.Print(stats.RenderBreakdown(rows))

	// Troubleshooting: what failed, where, and why.
	analysis, err := st.Analyze(report.WfUUID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstampede-analyzer output:")
	fmt.Print(analysis.Render())
}
