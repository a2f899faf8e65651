package loader

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/mq"
	"repro/internal/synth"
	"repro/internal/trace"
)

// traceRuns numbers the invocations of these tests in one process. They
// look their spans up by trace id in the process-wide ring, and a trace id
// is a hash of the line: a stream that repeated an earlier run's (under
// -count) would find that run's spans beside its own.
var traceRuns atomic.Int64

// freshSeed is a synth seed no other invocation uses: a different seed is
// different workflow uuids, so different lines and ids.
func freshSeed(base int64) int64 { return base + 1000*traceRuns.Add(1) }

// spansFor collects the default ring's spans for one trace id, keyed by
// stage.
func spansFor(id uint64) map[trace.Stage]trace.Span {
	out := map[trace.Stage]trace.Span{}
	for _, sp := range trace.Default().Spans() {
		if sp.ID == id {
			out[sp.Stage] = sp
		}
	}
	return out
}

// synthLines renders a deterministic synthetic workload and returns the
// BP byte stream plus its individual trimmed lines (the exact bytes the
// reader hashes for the sampling decision).
func synthLines(t *testing.T, cfg synth.Config) ([]byte, [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := synth.Generate(cfg).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, l := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if l = bytes.TrimSpace(l); len(l) > 0 {
			lines = append(lines, l)
		}
	}
	return buf.Bytes(), lines
}

// checkPipelineTrace asserts a sampled event's spans cover the expected
// stages with monotonically chained boundaries and a visibility epoch.
func checkPipelineTrace(t *testing.T, id uint64, stages []trace.Stage) {
	t.Helper()
	spans := spansFor(id)
	for _, st := range stages {
		sp, ok := spans[st]
		if !ok {
			t.Fatalf("trace %x missing %v span (has %v)", id, st, spans)
		}
		if sp.End < sp.Start {
			t.Errorf("%v span runs backwards: %d -> %d", st, sp.Start, sp.End)
		}
	}
	// Stage boundaries chain: each stage starts where the previous ended.
	for i := 1; i < len(stages); i++ {
		prev, cur := spans[stages[i-1]], spans[stages[i]]
		if cur.Start != prev.End {
			t.Errorf("%v starts at %d but %v ended at %d", stages[i], cur.Start, stages[i-1], prev.End)
		}
	}
	if c := spans[trace.StageCommit]; c.Epoch == 0 {
		t.Error("commit span has no visibility epoch")
	}
	if _, ok := spans[trace.StageDropped]; ok {
		t.Errorf("trace %x has a drop tombstone on the successful path", id)
	}
}

// TestFileLoadTracesEndToEnd traces every event of a sequential file
// load and checks a sampled line's full emit-to-commit journey plus the
// archive's freshness watermark.
func TestFileLoadTracesEndToEnd(t *testing.T) {
	defer trace.SetSampleEvery(trace.DefaultSampleEvery)
	trace.SetSampleEvery(1)

	stream, lines := synthLines(t, synth.Config{Seed: freshSeed(11), Jobs: 4})
	arch := archive.NewInMemory()
	defer arch.Close()
	l, err := New(arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := l.LoadReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded == 0 {
		t.Fatal("nothing loaded")
	}

	id := trace.Sample(lines[0])
	checkPipelineTrace(t, id, []trace.Stage{
		trace.StageEmit, trace.StageParse,
		trace.StageQueue, trace.StageApply, trace.StageCommit,
	})

	// The archive's freshness watermark is the stream's newest event
	// timestamp.
	var newest time.Time
	for _, l := range lines {
		ev, err := bp.ParseBytes(l)
		if err != nil {
			t.Fatal(err)
		}
		if ev.TS.After(newest) {
			newest = ev.TS
		}
		bp.ReleaseEvent(ev)
	}
	if wm, ok := arch.Watermark(); !ok || !wm.Equal(newest) {
		t.Fatalf("archive watermark = %v, %v; want %v", wm, ok, newest)
	}
}

// TestShardedLoadTracesEndToEnd runs the same check through the sharded
// pipeline: per-shard batching appliers must thread the
// trace context identically.
func TestShardedLoadTracesEndToEnd(t *testing.T) {
	defer trace.SetSampleEvery(trace.DefaultSampleEvery)
	trace.SetSampleEvery(1)

	stream, lines := synthLines(t, synth.Config{Seed: freshSeed(13), Jobs: 6, SubWorkflows: 2})
	arch := archive.NewInMemoryN(4)
	defer arch.Close()
	l, err := New(arch, Options{Shards: 4, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadReader(bytes.NewReader(stream)); err != nil {
		t.Fatal(err)
	}

	id := trace.Sample(lines[0])
	checkPipelineTrace(t, id, []trace.Stage{
		trace.StageEmit, trace.StageParse,
		trace.StageQueue, trace.StageApply, trace.StageCommit,
	})
}

// TestBusConsumeTracesRouteSpan feeds events through a broker queue and
// asserts the consumed trace records broker dwell as its route stage.
func TestBusConsumeTracesRouteSpan(t *testing.T) {
	defer trace.SetSampleEvery(trace.DefaultSampleEvery)
	trace.SetSampleEvery(1)

	_, lines := synthLines(t, synth.Config{Seed: freshSeed(17), Jobs: 3})
	broker := mq.NewBroker()
	q, err := broker.DeclareQueue("trace-test", mq.QueueOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.Bind("trace-test", "#"); err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		broker.Publish("stampede.event", append([]byte(nil), l...))
	}

	arch := archive.NewInMemory()
	defer arch.Close()
	l, err := New(arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() {
		// Let the consumer drain everything, then end the stream.
		for q.Len() > 0 {
			time.Sleep(time.Millisecond)
		}
		broker.DeleteQueue(q.Name())
	}()
	if _, err := l.ConsumeQueue(ctx, q); err != nil && ctx.Err() == nil {
		t.Fatal(err)
	}

	id := trace.Sample(lines[0])
	checkPipelineTrace(t, id, []trace.Stage{
		trace.StageRoute, trace.StageParse,
		trace.StageQueue, trace.StageApply, trace.StageCommit,
	})
}
