package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/dart"
	"repro/internal/loader"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/triana"
	"repro/internal/wfclock"
)

// This file implements the two experiments the paper defers to future
// work:
//
//   - §VIII: "running workflows of varying sizes through Triana and
//     evaluation of the loading performance" — the hypothesis being that
//     because both engines share nl_load, Triana traces load as fast as
//     Pegasus-shaped ones (TrianaLoadScaling).
//   - §V-A: "a workflow experiment that executes a data driven workflow
//     employing the continuous mode of operation of Triana"
//     (ContinuousDART).

// TrianaLoadRow is one point of the Triana loading-performance series.
type TrianaLoadRow struct {
	Tasks     int
	Events    int
	Rate      float64 // events/second through the loader
	SynthRate float64 // baseline: synthetic (Pegasus-shaped) trace of similar event count
}

// TrianaLoadScaling generates real Triana runs of varying sizes (N
// parallel work units on a scaled clock), loads their event streams, and
// compares the load rate against synthetic Pegasus-shaped traces with
// comparable event counts.
func TrianaLoadScaling(sizes []int) ([]TrianaLoadRow, error) {
	rows := make([]TrianaLoadRow, 0, len(sizes))
	for _, n := range sizes {
		clk := wfclock.NewScaled(Epoch, 100000)
		app := &triana.CollectAppender{}
		g := triana.NewTaskGraph(fmt.Sprintf("triana-scale-%d", n))
		src := g.MustAddTask("source", &triana.WorkUnit{
			UnitName: "source", Desc: "file", Duration: time.Second, Clock: clk,
		})
		sink := g.MustAddTask("sink", &triana.WorkUnit{
			UnitName: "sink", Desc: "file", Duration: time.Second, Clock: clk,
		})
		for i := 0; i < n; i++ {
			w := g.MustAddTask(fmt.Sprintf("work%04d", i), &triana.WorkUnit{
				UnitName: "work", Desc: "processing", Duration: 10 * time.Second, Clock: clk,
			})
			if _, err := g.Connect(src, w); err != nil {
				return nil, err
			}
			if _, err := g.Connect(w, sink); err != nil {
				return nil, err
			}
		}
		log := triana.NewStampedeLog(app)
		sched := triana.NewScheduler(g, triana.Options{
			Mode: triana.SingleStep, Clock: clk, Listeners: []triana.Listener{log},
		})
		if _, err := sched.Run(context.Background()); err != nil {
			return nil, err
		}
		// Render the run to BP text and measure the loader on it.
		var buf bytes.Buffer
		w := bp.NewWriter(&buf)
		for _, ev := range app.Events() {
			if err := w.Write(ev); err != nil {
				return nil, err
			}
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		a := archive.NewInMemory()
		l, err := loader.New(a, loader.Options{})
		if err != nil {
			return nil, err
		}
		st, err := l.LoadReader(&buf)
		if err != nil {
			return nil, err
		}
		row := TrianaLoadRow{Tasks: n + 2, Events: int(st.Loaded), Rate: st.Rate()}

		// Baseline: a synthetic trace with roughly the same event count
		// (synth emits ~12 events per job).
		synthJobs := row.Events / 12
		if synthJobs < 10 {
			synthJobs = 10
		}
		sa := archive.NewInMemory()
		sl, err := loader.New(sa, loader.Options{})
		if err != nil {
			return nil, err
		}
		sst, err := sl.LoadReader(bytes.NewReader(TraceFor(synthJobs)))
		if err != nil {
			return nil, err
		}
		row.SynthRate = sst.Rate()
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTrianaLoad formats the E8 series.
func RenderTrianaLoad(rows []TrianaLoadRow) string {
	var b strings.Builder
	b.WriteString("Triana loading performance across workflow sizes (the conclusion's promised experiment)\n")
	b.WriteString("hypothesis: no penalty vs Pegasus-shaped traces, since both share nl_load\n\n")
	fmt.Fprintf(&b, "%8s %10s %14s %18s %8s\n", "tasks", "events", "triana ev/s", "pegasus-like ev/s", "ratio")
	for _, r := range rows {
		ratio := 0.0
		if r.SynthRate > 0 {
			ratio = r.Rate / r.SynthRate
		}
		fmt.Fprintf(&b, "%8d %10d %14.0f %18.0f %8.2f\n", r.Tasks, r.Events, r.Rate, r.SynthRate, ratio)
	}
	return b.String()
}

// ContinuousResult is the outcome of the data-driven continuous-mode
// experiment.
type ContinuousResult struct {
	Q             *query.QI
	WfID          int64
	WfUUID        string
	ChunksEmitted int
	Invocations   map[string]int // per job, from the archive
	StoppedEarly  bool
	DetectedPitch float64
}

// RunContinuousDART runs a data-driven streaming workflow in Triana's
// continuous mode: an audio source streams chunks, an SHS analyzer
// estimates pitch per chunk, and an accumulator releases the workflow
// through a local condition once the estimate is stable — the iterative
// threshold pattern of §V-A. Every chunk is one invocation of the
// analyzer job, exercising the multiple-invocations-per-job-instance
// mapping.
func RunContinuousDART(maxChunks int, f0 float64) (*ContinuousResult, error) {
	if maxChunks <= 0 {
		maxChunks = 50
	}
	app := &triana.CollectAppender{}
	g := triana.NewTaskGraph("dart-continuous")

	var stop atomic.Bool
	emitted := 0
	source := g.MustAddTask("audio-source", &triana.FuncUnit{
		UnitName: "audio-source", Desc: "source",
		Fn: func(ctx *triana.ProcessContext) ([]any, error) {
			if stop.Load() || ctx.Invocation > maxChunks {
				return nil, triana.ErrStopIteration
			}
			emitted++
			// Pace the stream: a real audio source delivers chunks at the
			// capture rate, so the downstream condition can release the
			// workflow before the whole stream is buffered.
			time.Sleep(2 * time.Millisecond)
			sig := dart.Synthesize(dart.ToneSpec{
				F0: f0, Harmonics: 6, Decay: 0.7, Noise: 0.3,
				Seconds: 0.2, Seed: int64(ctx.Invocation),
			})
			return []any{sig}, nil
		},
	})

	analyzer := g.MustAddTask("shs-analyzer", &triana.FuncUnit{
		UnitName: "shs-analyzer", Desc: "processing",
		Fn: func(ctx *triana.ProcessContext) ([]any, error) {
			sig, ok := ctx.Inputs[0].(dart.Signal)
			if !ok {
				return nil, fmt.Errorf("analyzer got %T", ctx.Inputs[0])
			}
			track, err := dart.DetectPitch(sig, dart.SHSParams{NumHarmonics: 8, Compression: 0.8})
			if err != nil {
				return nil, err
			}
			return []any{track.Median()}, nil
		},
	})

	var lastPitch float64
	stable := 0
	threshold := g.MustAddTask("stability-check", &triana.FuncUnit{
		UnitName: "stability-check", Desc: "unit",
		Fn: func(ctx *triana.ProcessContext) ([]any, error) {
			pitch, _ := ctx.Inputs[0].(float64)
			if pitch > 0 && lastPitch > 0 && absRel(pitch, lastPitch) < 0.03 {
				stable++
			} else {
				stable = 0
			}
			if pitch > 0 {
				lastPitch = pitch
			}
			// Local condition: three consecutive agreeing estimates end
			// the stream.
			if stable >= 3 {
				stop.Store(true)
			}
			return nil, nil
		},
	})
	if _, err := g.Connect(source, analyzer); err != nil {
		return nil, err
	}
	if _, err := g.Connect(analyzer, threshold); err != nil {
		return nil, err
	}

	log := triana.NewStampedeLog(app)
	sched := triana.NewScheduler(g, triana.Options{
		Mode: triana.Continuous, Listeners: []triana.Listener{log},
	})
	report, err := sched.Run(context.Background())
	if err != nil {
		return nil, err
	}
	if report.Err != nil {
		return nil, report.Err
	}

	a := archive.NewInMemory()
	for _, ev := range app.Events() {
		parsed, err := bp.Parse(ev.Format())
		if err != nil {
			return nil, err
		}
		if err := a.Apply(parsed); err != nil {
			return nil, err
		}
	}
	q := query.New(a)
	wf, err := q.WorkflowByUUID(report.RunUUID)
	if err != nil || wf == nil {
		return nil, fmt.Errorf("workflow missing: %v", err)
	}
	res := &ContinuousResult{
		Q: q, WfID: wf.ID, WfUUID: report.RunUUID,
		ChunksEmitted: emitted,
		Invocations:   map[string]int{},
		StoppedEarly:  emitted < maxChunks,
		DetectedPitch: lastPitch,
	}
	jobs, err := q.Jobs(wf.ID)
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		insts, err := q.JobInstances(j.ID)
		if err != nil {
			return nil, err
		}
		for _, inst := range insts {
			invs, err := q.InvocationsForInstance(inst.ID)
			if err != nil {
				return nil, err
			}
			res.Invocations[j.ExecJobID] += len(invs)
		}
	}
	return res, nil
}

func absRel(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b == 0 {
		return 1
	}
	return d / b
}

// RenderContinuous formats the E9 report.
func RenderContinuous(r *ContinuousResult) string {
	var b strings.Builder
	b.WriteString("Continuous-mode data-driven workflow (the §V-A future-work experiment)\n")
	b.WriteString("an audio stream analyzed until the pitch estimate stabilises\n\n")
	fmt.Fprintf(&b, "chunks streamed           : %d (stopped early by local condition: %v)\n",
		r.ChunksEmitted, r.StoppedEarly)
	fmt.Fprintf(&b, "final pitch estimate      : %.1f Hz\n", r.DetectedPitch)
	b.WriteString("invocations per job in the archive (one job instance each):\n")
	for _, job := range []string{"audio-source", "shs-analyzer", "stability-check"} {
		fmt.Fprintf(&b, "  %-16s %4d\n", job, r.Invocations[job])
	}
	summary, err := stats.Compute(r.Q, r.WfID, true)
	if err == nil {
		fmt.Fprintf(&b, "jobs: %d total, %d succeeded; tasks: %d\n",
			summary.Jobs.Total, summary.Jobs.Succeeded, summary.Tasks.Total)
	}
	return b.String()
}
