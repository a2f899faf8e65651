// benchjson turns `go test -bench` output into a JSON document suitable
// for archiving alongside a commit or diffing across runs. It tees the
// bench output through to stdout unchanged and writes the parsed form to
// the -out file:
//
//	go test -bench 'BenchmarkLoader' -benchmem -run XXX . | benchjson -out BENCH_loader.json
//
// Each benchmark line becomes an object with its iteration count, ns/op,
// and every extra "value unit" metric pair (events/s, B/op, fsyncs/op, …).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// benchLine matches e.g.
//
//	BenchmarkLoaderScale1k    	      12	  95543210 ns/op	    52123 events/s	 6051006 B/op	  115915 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// metricPair matches one trailing "value unit" metric.
var metricPair = regexp.MustCompile(`([\d.]+) (\S+)`)

type benchResult struct {
	Name    string             `json:"name"`
	N       int64              `json:"n"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Go         string        `json:"go"`
	OS         string        `json:"os"`
	Arch       string        `json:"arch"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "file to write the JSON report to (required)")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -out is required")
		os.Exit(2)
	}

	rep := report{Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		br := benchResult{Name: strings.TrimPrefix(m[1], "Benchmark"), N: n, NsPerOp: ns}
		for _, mp := range metricPair.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(mp[1], 64)
			if err != nil {
				continue
			}
			if br.Metrics == nil {
				br.Metrics = map[string]float64{}
			}
			br.Metrics[mp[2]] = v
		}
		rep.Benchmarks = append(rep.Benchmarks, br)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read stdin: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found")
		os.Exit(1)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
