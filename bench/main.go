// Command bench is the repository's benchmark: it wires the monitoring
// pipeline as deployed (engine lines → mq over TCP → loader → eventlog +
// durable archive → views → dashboard → SSE viewer), measures it from
// outside, checks its outputs and prints every metric with its unit.
// README.md in this directory defines the workloads and metrics.
//
//	go run ./bench -workload steady_durable -seed 42 -seconds 10 -trace 0
//	go run ./bench -seed 42 -out a.json -spans spans.jsonl
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/mq"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its result as the last line; empty runs every workload untraced then traced")
		seed    = flag.Int64("seed", 42, "scenario seed; it reaches the stream generator only")
		seconds = flag.Int("seconds", 10, "how long a run measures; line counts scale with it, rates and the window do not")
		traced  = flag.Int("trace", 0, "with -workload: 1 runs the traced pass and prints the per-layer metrics, 0 the end-to-end ones")
		runs    = flag.Int("runs", 1, "without -workload: untraced runs per workload")
		out     = flag.String("out", "", "without -workload: write every run's result to this JSON file")
		spans   = flag.String("spans", "", "write the traced pass's spans to this file as JSON lines")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if *spans != "" {
		os.Remove(*spans) // writeSpans appends one workload after another
	}
	var err error
	switch {
	case *compare:
		err = runCompare(os.Stdout, flag.Args())
	case *seconds < 1:
		err = errors.New("bench: -seconds must be at least 1")
	case *name != "":
		err = runOne(*name, *seed, *seconds, *traced == 1, *spans)
	default:
		err = runAll(*seed, *seconds, *runs, *out, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// maxAttempts bounds how often a run the generator guard rejected is run
// again. A rejected run records nothing; on the sandbox this was written
// on, one run in forty is rejected because the whole machine stalled for
// a few hundred milliseconds, which says nothing about the pipeline. A
// pipeline that stalls its own generator fails every attempt.
const maxAttempts = 3

// runValid runs one pass of wl over in, each attempt in a fresh directory
// from mkdir, until the generator guard accepts it.
func runValid(wl workload, in *input, buildS float64, seed int64, seconds int, traced bool, qopts mq.QueueOpts, mkdir func() (string, func(), error)) (*result, error) {
	for attempt := 1; ; attempt++ {
		dir, cleanup, err := mkdir()
		if err != nil {
			return nil, err
		}
		r, err := runWorkload(wl, in, buildS, seed, seconds, traced, qopts, dir)
		cleanup()
		if !errors.Is(err, errInvalidRun) || attempt == maxAttempts {
			return r, err
		}
		fmt.Printf("# %v; nothing recorded, running it again\n", err)
	}
}

// execute runs one pass over an already built input, then (traced) the
// isolated drives, and prints the result for people.
func execute(wl workload, in *input, buildS float64, seed int64, seconds int, traced bool, spansPath string) (*result, error) {
	r, err := runValid(wl, in, buildS, seed, seconds, traced, mq.QueueOpts{Durable: true}, runDir)
	if err != nil {
		return nil, err
	}
	if traced {
		dir, cleanup, err := runDir()
		if err != nil {
			return nil, err
		}
		defer cleanup()
		if err := runIsolated(r, seed, seconds, dir); err != nil {
			return nil, err
		}
		printSelfTimes(os.Stdout, wl.name, r.spans)
		if spansPath != "" {
			if err := writeSpans(spansPath, wl.name, r.spans); err != nil {
				return nil, err
			}
		}
	}
	printResult(r)
	return r, nil
}

func printResult(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		if m.N > 0 {
			fmt.Printf("%s %s %.6g %s n=%d\n", r.Workload, name, m.Value, m.Unit, m.N)
		} else {
			fmt.Printf("%s %s %.6g %s\n", r.Workload, name, m.Value, m.Unit)
		}
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Printf("# %s check %s: %s (%s)\n", r.Workload, status, c.Name, c.Detail)
	}
}

// runOne is the driver's contract: one workload, one pass, and as the
// last line of standard output one JSON object with the pass's metrics.
func runOne(name string, seed int64, seconds int, traced bool, spansPath string) error {
	wl, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("bench: unknown workload %q", name)
	}
	t := time.Now()
	in, err := buildInput(seed, wl.lines(seconds))
	if err != nil {
		return err
	}
	r, err := execute(wl, in, time.Since(t).Seconds(), seed, seconds, traced, spansPath)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		if m.Layer == traced {
			line.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return r.failure()
}

// resultFile is what -out writes and -compare reads: one set of runs of
// one commit.
type resultFile struct {
	Seed    int64     `json:"seed"`
	Seconds int       `json:"seconds"`
	Runs    []*result `json:"runs"`
	// Derived holds what takes two passes to know, per workload:
	// trace.overhead_pct = 100 × (1 − traced events/s ÷ median untraced
	// events/s).
	Derived map[string]map[string]metric `json:"derived"`
}

// runAll is the one command: for every workload build its stream, run it
// untraced (runs times) and then traced, print everything, and fail if
// any check failed.
func runAll(seed int64, seconds, runs int, outPath, spansPath string) error {
	file := resultFile{Seed: seed, Seconds: seconds, Derived: map[string]map[string]metric{}}
	failed := false
	for _, wl := range workloads {
		t := time.Now()
		in, err := buildInput(seed, wl.lines(seconds))
		if err != nil {
			return err
		}
		buildS := time.Since(t).Seconds()
		var untraced []float64
		for pass := 0; pass <= runs; pass++ {
			traced := pass == runs
			// Leave the previous run's heap behind, so that runs in one
			// process start as alike as runs in separate processes.
			runtime.GC()
			debug.FreeOSMemory()
			r, err := execute(wl, in, buildS, seed, seconds, traced, spansPath)
			if err != nil {
				return err
			}
			file.Runs = append(file.Runs, r)
			failed = failed || r.failure() != nil
			if !traced {
				untraced = append(untraced, r.Metrics["events_per_s"].Value)
				continue
			}
			sort.Float64s(untraced)
			over := 100 * (1 - ratio(r.Metrics["trace.events_per_s"].Value, median(untraced)))
			file.Derived[wl.name] = map[string]metric{"trace.overhead_pct": {Value: over, Unit: "%", Layer: true}}
			fmt.Printf("%s trace.overhead_pct %.6g %%\n", wl.name, over)
		}
	}
	if outPath != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return errFailed
	}
	return nil
}

// runDir makes a fresh directory for one run's stores under the working
// directory, so the benchmark writes nothing outside its checkout.
func runDir() (string, func(), error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
