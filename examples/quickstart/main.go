// Quickstart: build a small Triana workflow, monitor it with Stampede,
// and query the statistics — the whole three-layer pipeline in one file.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/triana"
	"repro/internal/wfclock"
)

func main() {
	// 1. Start the monitoring service: message bus + loader + archive.
	st, err := core.Start(core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Stop()

	// 2. Build a workflow: read -> [analyzeA, analyzeB] -> combine.
	// A scaled clock makes the modeled 30-second tasks take 30ms real.
	clk := wfclock.NewScaled(time.Now().UTC(), 1000)
	g := triana.NewTaskGraph("quickstart")
	read := g.MustAddTask("read", &triana.WorkUnit{
		UnitName: "read-input", Desc: "file", Duration: 2 * time.Second, Clock: clk,
	})
	analyzeA := g.MustAddTask("analyzeA", &triana.WorkUnit{
		UnitName: "analyze", Desc: "processing", Duration: 30 * time.Second, Clock: clk,
	})
	analyzeB := g.MustAddTask("analyzeB", &triana.WorkUnit{
		UnitName: "analyze", Desc: "processing", Duration: 45 * time.Second, Clock: clk,
	})
	combine := g.MustAddTask("combine", &triana.WorkUnit{
		UnitName: "combine", Desc: "file", Duration: 2 * time.Second, Clock: clk,
	})
	g.Connect(read, analyzeA)
	g.Connect(read, analyzeB)
	g.Connect(analyzeA, combine)
	g.Connect(analyzeB, combine)

	// 3. Attach the Stampede log: Triana execution events become schema
	// events on the bus, loaded into the archive in real time.
	wfLog := triana.NewStampedeLog(st.Appender())
	sched := triana.NewScheduler(g, triana.Options{
		Mode:      triana.SingleStep,
		Clock:     clk,
		Listeners: []triana.Listener{wfLog},
	})
	report, err := sched.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workflow %s finished: %d tasks\n\n", report.RunUUID, report.Completed)

	// 4. Wait for the loader to catch up, then mine the statistics.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := st.WaitLoaded(ctx, uint64(wfLog.Appended())); err != nil {
		log.Fatal(err)
	}

	summary, err := st.Statistics(wfLog.WorkflowUUID(), true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(summary.Render())

	rows, err := st.JobsReport(wfLog.WorkflowUUID())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-job timings (jobs.txt):")
	for _, r := range rows {
		fmt.Printf("  %-10s runtime %5.1fs  queue %4.2fs  exit %d\n",
			r.Job, r.Runtime, r.QueueTime, r.Exit)
	}

	analysis, err := st.Analyze(wfLog.WorkflowUUID())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanalyzer: healthy=%v (%d/%d jobs succeeded)\n",
		analysis.Healthy(), analysis.Succeeded, analysis.Total)
}
