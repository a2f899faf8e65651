// stampede-soak runs a declarative workload scenario end to end through
// the monitoring pipeline (broker -> loader -> archive) and audits the
// run against the stream's own annotations: exact event accounting,
// the archive's freshness watermark, snapshot row counts, and — for ramping schedules
// — the measured throughput knee. Exit status 0 means every check passed.
//
//	stampede-soak -scenario examples/scenarios/fault-soak.json -duration 30s
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/soak"
	"repro/internal/synth"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "scenario JSON file (required)")
		duration     = flag.Duration("duration", 0, "replay length; 0 keeps the schedule's natural length")
		shards       = flag.Int("shards", 4, "loader apply shards")
		speedup      = flag.Float64("speedup", 1, "publish this many times faster than planned; 0 = no pacing")
		out          = flag.String("out", "", "also write the report as JSON to this file")
		eventlogDir  = flag.String("eventlog", "", "tee ingest into an event log at this directory; the audit then replays from the log (see stampede-replay)")
		bundleDir    = flag.String("bundle-dir", "", "attach an SLO health engine; firing alerts write diagnostics bundles here (inspect with stampede-doctor)")
	)
	flag.Parse()
	if *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "stampede-soak: -scenario is required")
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*scenarioPath)
	if err != nil {
		fatal(err)
	}
	sc, err := synth.ParseScenario(data)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("scenario %q: %s\n", sc.Name, sc.Description)
	opts := soak.Options{Shards: *shards, Speedup: *speedup, EventlogDir: *eventlogDir}
	if *bundleDir != "" {
		opts.SLO = &soak.SLOOptions{BundleDir: *bundleDir}
	}
	res, err := soak.Run(sc, duration.Seconds(), opts)
	if err != nil {
		fatal(err)
	}
	rep := soak.BuildReport(res)
	if res.Eventlog != nil {
		defer res.Eventlog.Close()
	}
	rep.Render(os.Stdout)
	if *out != "" {
		js, jerr := rep.JSON()
		if jerr == nil {
			jerr = os.WriteFile(*out, js, 0o644)
		}
		if jerr != nil {
			fatal(jerr)
		}
	}
	if !rep.Pass {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stampede-soak:", err)
	os.Exit(1)
}
