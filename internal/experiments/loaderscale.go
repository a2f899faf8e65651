package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/loader"
	"repro/internal/relstore"
	"repro/internal/synth"
)

// LoaderScaleRow is one point of the loader-scaling experiment (E5): the
// paper's §IV-E claims nl_load "scales well for large workflows", up to
// CyberShake's O(10^6) tasks, and the conclusion promises a loading-
// performance evaluation across workflow sizes — this regenerates that
// series over synthesized traces.
type LoaderScaleRow struct {
	Jobs      int
	Events    int
	BatchSize int
	Elapsed   time.Duration
	Rate      float64 // events/second
}

// TraceFor synthesizes a workflow trace with the given number of jobs,
// rendered to BP text. Shared by the scaling experiment and the
// benchmarks so both measure the same inputs.
func TraceFor(jobs int) []byte {
	tr := synth.Generate(synth.Config{
		Seed:           int64(jobs),
		Jobs:           jobs,
		Width:          jobs / 10,
		Hosts:          16,
		SlotsPerHost:   4,
		FailureRate:    0.02,
		MaxRetries:     2,
		QueueDelayMean: 1,
		Label:          fmt.Sprintf("scale-%d", jobs),
	})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// LoaderScale measures load throughput across workflow sizes at one batch
// size.
func LoaderScale(jobCounts []int, batchSize int) ([]LoaderScaleRow, error) {
	rows := make([]LoaderScaleRow, 0, len(jobCounts))
	for _, jobs := range jobCounts {
		trace := TraceFor(jobs)
		a := archive.NewInMemory()
		l, err := loader.New(a, loader.Options{BatchSize: batchSize})
		if err != nil {
			return nil, err
		}
		st, err := l.LoadReader(bytes.NewReader(trace))
		if err != nil {
			return nil, err
		}
		rows = append(rows, LoaderScaleRow{
			Jobs:      jobs,
			Events:    int(st.Loaded),
			BatchSize: batchSize,
			Elapsed:   st.Elapsed,
			Rate:      st.Rate(),
		})
	}
	return rows, nil
}

// LoaderBatchSweep measures throughput at one workflow size across batch
// sizes: the ablation for the paper's batched-insert design decision
// (§V-D). The archive is a durable store directory so every batch pays a
// real commit (WAL write + fsync); each point is the best of three runs
// after a warm-up pass, so allocator and GC noise do not swamp the batch
// effect.
func LoaderBatchSweep(jobs int, batchSizes []int) ([]LoaderScaleRow, error) {
	trace := TraceFor(jobs)
	dir, err := os.MkdirTemp("", "stampede-batchsweep")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	run := 0
	once := func(bs int) (loader.Stats, error) {
		run++
		a, err := archive.OpenDir(filepath.Join(dir, fmt.Sprintf("run%d", run)), relstore.Options{})
		if err != nil {
			return loader.Stats{}, err
		}
		defer a.Close()
		// Full durability: each committed batch is fsynced, as a
		// production SQL archive would.
		a.Store().SetSync(true)
		l, err := loader.New(a, loader.Options{BatchSize: bs})
		if err != nil {
			return loader.Stats{}, err
		}
		return l.LoadReader(bytes.NewReader(trace))
	}
	if _, err := once(batchSizes[0]); err != nil { // warm-up
		return nil, err
	}
	rows := make([]LoaderScaleRow, 0, len(batchSizes))
	for _, bs := range batchSizes {
		var best loader.Stats
		for rep := 0; rep < 3; rep++ {
			st, err := once(bs)
			if err != nil {
				return nil, err
			}
			if best.Loaded == 0 || st.Elapsed < best.Elapsed {
				best = st
			}
		}
		rows = append(rows, LoaderScaleRow{
			Jobs:      jobs,
			Events:    int(best.Loaded),
			BatchSize: bs,
			Elapsed:   best.Elapsed,
			Rate:      best.Rate(),
		})
	}
	return rows, nil
}

// RenderLoaderRows formats scaling rows as an aligned table.
func RenderLoaderRows(title string, rows []LoaderScaleRow) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%10s %10s %8s %12s %14s\n", "jobs", "events", "batch", "elapsed", "events/sec")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %10d %8d %12s %14.0f\n",
			r.Jobs, r.Events, r.BatchSize, r.Elapsed.Round(time.Millisecond), r.Rate)
	}
	return b.String()
}
