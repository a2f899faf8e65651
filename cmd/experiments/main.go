// experiments regenerates every table and figure of the paper's
// evaluation, plus the loader-scaling and analysis experiments the paper
// references, printing measured values next to the published ones.
//
//	experiments -run all
//	experiments -run table1,fig7
//	experiments -run loaderscale -max-jobs 200000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		run     = flag.String("run", "all", "comma-separated: table1,table2,table34,fig7,loaderscale,batchsweep,crossengine,anomaly,trianascale,continuous or all")
		scale   = flag.Float64("scale", 2000, "virtual-clock speed-up for engine runs")
		maxJobs = flag.Int("max-jobs", 100000, "loaderscale: largest synthetic workflow")
		realSHS = flag.Bool("real-shs", false, "dart: run the real pitch-detection computation")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	wantDart := all || want["table1"] || want["table2"] || want["table34"] || want["fig7"]

	var dartData *experiments.DARTData
	if wantDart {
		fmt.Fprintln(os.Stderr, "running the DART experiment (306 executions, 20 bundles, 8 nodes)...")
		var err error
		dartData, err = experiments.RunDART(experiments.DARTOptions{Scale: *scale, RealSHS: *realSHS})
		if err != nil {
			fatal("dart: %v", err)
		}
		fmt.Fprintf(os.Stderr, "dart finished: %d events collected and loaded\n\n", dartData.Events)
	}

	section := func(name string, body func() (string, error)) {
		if !all && !want[name] {
			return
		}
		out, err := body()
		if err != nil {
			fatal("%s: %v", name, err)
		}
		fmt.Println("================================================================")
		fmt.Println(out)
	}

	section("table1", func() (string, error) { return experiments.Table1(dartData), nil })
	section("table2", func() (string, error) { return experiments.Table2(dartData) })
	section("table34", func() (string, error) { return experiments.Table34(dartData) })
	section("fig7", func() (string, error) { return experiments.Fig7(dartData) })

	section("loaderscale", func() (string, error) {
		sizes := []int{100, 1000, 10000}
		if *maxJobs >= 100000 {
			sizes = append(sizes, 100000)
		}
		if *maxJobs >= 1000000 {
			sizes = append(sizes, 1000000)
		}
		rows, err := experiments.LoaderScale(sizes, 512)
		if err != nil {
			return "", err
		}
		return experiments.RenderLoaderRows(
			"Loader scaling (paper §IV-E: nl_load handles O(10^6)-task workflows; conclusion's promised experiment)",
			rows), nil
	})

	section("batchsweep", func() (string, error) {
		rows, err := experiments.LoaderBatchSweep(2000, []int{1, 16, 128, 512, 4096})
		if err != nil {
			return "", err
		}
		return experiments.RenderLoaderRows(
			"Loader batch-size ablation, durable archive (the batched-insert design decision of §V-D)",
			rows), nil
	})

	section("crossengine", func() (string, error) {
		r, err := experiments.RunCrossEngine(*scale)
		if err != nil {
			return "", err
		}
		return experiments.RenderCrossEngine(r), nil
	})

	section("trianascale", func() (string, error) {
		rows, err := experiments.TrianaLoadScaling([]int{10, 50, 250, 1000})
		if err != nil {
			return "", err
		}
		return experiments.RenderTrianaLoad(rows), nil
	})

	section("continuous", func() (string, error) {
		r, err := experiments.RunContinuousDART(50, 220)
		if err != nil {
			return "", err
		}
		return experiments.RenderContinuous(r), nil
	})

	section("anomaly", func() (string, error) {
		r, err := experiments.RunAnomaly()
		if err != nil {
			return "", err
		}
		return experiments.RenderAnomaly(r), nil
	})
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
