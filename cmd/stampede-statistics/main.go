// stampede-statistics mines performance metrics from a Stampede archive:
// the Table I summary, breakdown.txt, jobs.txt, the per-host usage
// breakdown and the Figure 7 progress series.
//
//	stampede-statistics -db test.db                    # all root workflows
//	stampede-statistics -db test.db -wf <uuid> -jobs   # one workflow's jobs.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/archive"
	"repro/internal/query"
	"repro/internal/stats"
)

func main() {
	var (
		dbPath    = flag.String("db", "stampede.db", "archive store directory")
		wfUUID    = flag.String("wf", "", "workflow uuid (default: every root workflow)")
		noRecurse = flag.Bool("no-recurse", false, "do not aggregate sub-workflows")
		breakdown = flag.Bool("breakdown", false, "print breakdown.txt (per-transformation)")
		jobs      = flag.Bool("jobs", false, "print jobs.txt (per-job timings)")
		hosts     = flag.Bool("hosts", false, "print per-host usage")
		progress  = flag.Bool("progress", false, "print the progress-to-completion series")
		hostsTime = flag.Duration("hosts-over-time", 0, "print per-host activity bucketed by this window (e.g. 60s)")
	)
	flag.Parse()

	arch, err := archive.LoadDir(*dbPath)
	if err != nil {
		fatal("open archive: %v", err)
	}
	// Pin one snapshot for the whole run: every report below — workflow
	// listing included — describes the same instant of the archive, even if
	// a loader is appending to the database concurrently.
	q, release := query.New(arch).Snapshot()
	defer release()

	var targets []query.Workflow
	if *wfUUID != "" {
		wf, err := q.WorkflowByUUID(*wfUUID)
		if err != nil {
			fatal("%v", err)
		}
		if wf == nil {
			fatal("no workflow %s in %s", *wfUUID, *dbPath)
		}
		targets = []query.Workflow{*wf}
	} else {
		roots, err := q.RootWorkflows()
		if err != nil {
			fatal("%v", err)
		}
		if len(roots) == 0 {
			fatal("archive %s contains no workflows", *dbPath)
		}
		targets = roots
	}

	for _, wf := range targets {
		fmt.Printf("# Workflow %s", wf.UUID)
		if wf.DaxLabel != "" {
			fmt.Printf(" (%s)", wf.DaxLabel)
		}
		fmt.Println()
		summary, err := stats.Compute(q, wf.ID, !*noRecurse)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Print(summary.Render())
		if *breakdown {
			rows, err := stats.Breakdown(q, wf.ID, !*noRecurse)
			if err != nil {
				fatal("%v", err)
			}
			fmt.Println("\n## breakdown.txt")
			fmt.Print(stats.RenderBreakdown(rows))
		}
		if *jobs {
			rows, err := stats.JobsReport(q, wf.ID)
			if err != nil {
				fatal("%v", err)
			}
			fmt.Println("\n## jobs.txt")
			fmt.Print(stats.RenderJobs(rows))
		}
		if *hosts {
			usage, err := stats.HostsBreakdown(q, wf.ID, !*noRecurse)
			if err != nil {
				fatal("%v", err)
			}
			fmt.Println("\n## hosts")
			fmt.Printf("%-16s %6s %12s %14s\n", "Host", "Jobs", "Invocations", "Runtime (s)")
			for _, u := range usage {
				fmt.Printf("%-16s %6d %12d %14.1f\n", u.Host, u.Jobs, u.Invocations, u.TotalRuntime)
			}
		}
		if *hostsTime > 0 {
			buckets, err := stats.HostTimeSeries(q, wf.ID, !*noRecurse, *hostsTime)
			if err != nil {
				fatal("%v", err)
			}
			fmt.Println("\n## hosts over time")
			fmt.Print(stats.RenderHostTimeSeries(buckets))
		}
		if *progress {
			series, err := stats.ProgressSeries(q, wf.ID)
			if err != nil {
				fatal("%v", err)
			}
			fmt.Println("\n## progress (Figure 7)")
			fmt.Print(stats.RenderProgress(series))
		}
		fmt.Println()
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stampede-statistics: "+format+"\n", args...)
	os.Exit(1)
}
