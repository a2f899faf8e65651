// stampede-analyzer is the troubleshooting CLI: a summary of succeeded
// and failed jobs, detail for each failure (last known state, captured
// stdout/stderr), and drill-down through the sub-workflow hierarchy.
// With -traces it instead aggregates a trace dump (a file, or a live
// dashboard's /api/traces URL) into the per-stage latency percentile
// report.
//
//	stampede-analyzer -db test.db
//	stampede-analyzer -db test.db -wf <uuid>
//	stampede-analyzer -traces http://localhost:8080/api/traces
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repro/internal/analyzer"
	"repro/internal/archive"
	"repro/internal/query"
	"repro/internal/trace"
)

func main() {
	var (
		dbPath  = flag.String("db", "stampede.db", "archive store directory")
		wfUUID  = flag.String("wf", "", "workflow uuid (default: every root workflow)")
		quiet   = flag.Bool("q", false, "exit status only; print nothing")
		tracesF = flag.String("traces", "", "trace dump to analyze: a JSON file or an /api/traces URL (skips the archive)")
	)
	flag.Parse()

	if *tracesF != "" {
		if err := latencyReport(*tracesF); err != nil {
			fatal("%v", err)
		}
		return
	}

	arch, err := archive.LoadDir(*dbPath)
	if err != nil {
		fatal("open archive: %v", err)
	}
	// One snapshot for the whole analysis: the root listing and every
	// drill-down report describe the same point in time.
	q, release := query.New(arch).Snapshot()
	defer release()

	var targets []query.Workflow
	if *wfUUID != "" {
		wf, err := q.WorkflowByUUID(*wfUUID)
		if err != nil {
			fatal("%v", err)
		}
		if wf == nil {
			fatal("no workflow %s", *wfUUID)
		}
		targets = []query.Workflow{*wf}
	} else {
		targets, err = q.RootWorkflows()
		if err != nil {
			fatal("%v", err)
		}
	}

	healthy := true
	for _, wf := range targets {
		report, err := analyzer.Analyze(q, wf.ID, true)
		if err != nil {
			fatal("%v", err)
		}
		if !report.Healthy() {
			healthy = false
		}
		if !*quiet {
			fmt.Print(report.Render())
		}
	}
	if !healthy {
		os.Exit(2)
	}
}

// latencyReport reads a trace.Dump from a file or URL and prints the
// per-stage latency table — the paper's latency breakdown, computed from
// live sampled traces instead of a benchmark harness.
func latencyReport(src string) error {
	var r io.ReadCloser
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		resp, err := http.Get(src)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("GET %s: %s", src, resp.Status)
		}
		r = resp.Body
	} else {
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		r = f
	}
	defer r.Close()

	var dump trace.Dump
	if err := json.NewDecoder(r).Decode(&dump); err != nil {
		return fmt.Errorf("decode trace dump: %v", err)
	}
	report := trace.BuildReport(dump.Traces, dump.SampleEvery)
	fmt.Print(report.Render())
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stampede-analyzer: "+format+"\n", args...)
	os.Exit(1)
}
