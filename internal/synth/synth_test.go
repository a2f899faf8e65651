package synth

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/loader"
	"repro/internal/schema"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Jobs: 20, FailureRate: 0.2, MaxRetries: 2}
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i].Format() != b.Events[i].Format() {
			t.Fatalf("event %d differs:\n%s\n%s", i, a.Events[i].Format(), b.Events[i].Format())
		}
	}
	c := Generate(Config{Seed: 8, Jobs: 20, FailureRate: 0.2, MaxRetries: 2})
	if len(c.Events) == len(a.Events) {
		same := true
		for i := range c.Events {
			if c.Events[i].Format() != a.Events[i].Format() {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestGeneratedEventsScheduleValid(t *testing.T) {
	v, err := schema.NewValidator()
	if err != nil {
		t.Fatal(err)
	}
	v.Strict = true
	tr := Generate(Config{Seed: 3, Jobs: 15, FailureRate: 0.3, MaxRetries: 1, TasksPerJob: 2, Width: 5})
	for i, ev := range tr.Events {
		if err := v.Validate(ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	// Timestamps must be non-decreasing after the generator's sort.
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].TS.Before(tr.Events[i-1].TS) {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestGeneratedTraceLoads(t *testing.T) {
	tr := Generate(Config{Seed: 1, Jobs: 25, TasksPerJob: 3, FailureRate: 0.1, MaxRetries: 2, Width: 5})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	a := archive.NewInMemory()
	l, _ := loader.New(a, loader.Options{})
	stats, err := l.LoadReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != uint64(len(tr.Events)) {
		t.Fatalf("loaded %d of %d", stats.Loaded, len(tr.Events))
	}
	if n, _ := a.Store().Count(archive.TJob); n != 25 {
		t.Errorf("jobs = %d", n)
	}
	if n, _ := a.Store().Count(archive.TTask); n != 75 {
		t.Errorf("tasks = %d, want 75 (3 per job)", n)
	}
	nInst, _ := a.Store().Count(archive.TJobInstance)
	if nInst != 25+tr.TotalRetries+tr.FailedJobs*0 {
		// every retry adds an instance; failed jobs with exhausted
		// retries already counted their instances
		t.Logf("instances=%d retries=%d failed=%d", nInst, tr.TotalRetries, tr.FailedJobs)
	}
	if nInst < 25 {
		t.Errorf("instances = %d < jobs", nInst)
	}
}

func TestSubWorkflowsShareHostsAndLink(t *testing.T) {
	tr := Generate(Config{Seed: 5, Jobs: 32, SubWorkflows: 4, Hosts: 2, SlotsPerHost: 2})
	if len(tr.SubUUIDs) != 4 {
		t.Fatalf("sub uuids = %d", len(tr.SubUUIDs))
	}
	a := archive.NewInMemory()
	l, _ := loader.New(a, loader.Options{})
	var buf bytes.Buffer
	_, _ = tr.WriteTo(&buf)
	if _, err := l.LoadReader(&buf); err != nil {
		t.Fatal(err)
	}
	if n, _ := a.Store().Count(archive.TWorkflow); n != 5 {
		t.Fatalf("workflows = %d, want 5 (root+4)", n)
	}
	// All 32 exec jobs live in the sub-workflows; the root holds 4
	// submission jobs.
	if n, _ := a.Store().Count(archive.TJob); n != 36 {
		t.Fatalf("jobs = %d, want 36", n)
	}
}

func TestHostSlowdownStretchesRuntimes(t *testing.T) {
	fast := Generate(Config{Seed: 2, Jobs: 40, Hosts: 4, SlotsPerHost: 1})
	slow := Generate(Config{Seed: 2, Jobs: 40, Hosts: 4, SlotsPerHost: 1,
		HostSlowdown: map[int]float64{0: 5.0}})
	meanDur := func(tr *Trace, host string) (float64, int) {
		var sum float64
		var n int
		for _, ev := range tr.Events {
			if ev.Type == schema.InvEnd && ev.Get(schema.AttrHostname) == host {
				d, _ := ev.Float(schema.AttrDur)
				sum += d
				n++
			}
		}
		if n == 0 {
			return 0, 0
		}
		return sum / float64(n), n
	}
	fm, fn := meanDur(fast, "worker1")
	sm, sn := meanDur(slow, "worker1")
	if fn == 0 || sn == 0 {
		t.Fatalf("no invocations on worker1: %d %d", fn, sn)
	}
	if sm < 2*fm {
		t.Fatalf("slowdown not visible: fast mean %.1f, slow mean %.1f", fm, sm)
	}
}

func TestFailureInjectionProducesFailures(t *testing.T) {
	tr := Generate(Config{Seed: 11, Jobs: 100, FailureRate: 0.5, MaxRetries: 0})
	if tr.FailedJobs == 0 {
		t.Fatal("50% failure rate produced no failed jobs")
	}
	if tr.FailedJobs > 80 {
		t.Fatalf("failed jobs = %d, implausibly high for rate 0.5", tr.FailedJobs)
	}
	failEvents := 0
	for _, ev := range tr.Events {
		if ev.Type == schema.MainEnd {
			if code, _ := ev.Int(schema.AttrExitcode); code != 0 {
				failEvents++
			}
		}
	}
	if failEvents != tr.FailedJobs {
		t.Fatalf("main.end failures %d != FailedJobs %d", failEvents, tr.FailedJobs)
	}
}

func TestRetriesRecorded(t *testing.T) {
	tr := Generate(Config{Seed: 4, Jobs: 60, FailureRate: 0.4, MaxRetries: 3})
	if tr.TotalRetries == 0 {
		t.Fatal("no retries generated at 40% failure rate")
	}
	// Retried jobs must have multiple job_inst.id values.
	maxSeq := map[string]int64{}
	for _, ev := range tr.Events {
		if ev.Type == schema.SubmitStart {
			seq, _ := ev.Int(schema.AttrJobInstID)
			job := ev.Get(schema.AttrJobID)
			if seq > maxSeq[job] {
				maxSeq[job] = seq
			}
		}
	}
	multi := 0
	for _, s := range maxSeq {
		if s > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no job has a second instance despite retries")
	}
}

func TestMakespanReflectsContention(t *testing.T) {
	// Same work on fewer slots must take longer.
	wide := Generate(Config{Seed: 9, Jobs: 40, Hosts: 8, SlotsPerHost: 4})
	narrow := Generate(Config{Seed: 9, Jobs: 40, Hosts: 1, SlotsPerHost: 1})
	if narrow.MakespanSeconds < 2*wide.MakespanSeconds {
		t.Fatalf("contention invisible: narrow %.0fs vs wide %.0fs",
			narrow.MakespanSeconds, wide.MakespanSeconds)
	}
}

func TestWriteToText(t *testing.T) {
	tr := Generate(Config{Seed: 1, Jobs: 2})
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != len(tr.Events) {
		t.Fatalf("wrote %d, want %d", n, len(tr.Events))
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(tr.Events) {
		t.Fatalf("lines = %d", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "ts=") {
			t.Fatalf("bad line %q", l)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	tr := Generate(Config{Seed: 1})
	if len(tr.Events) == 0 {
		t.Fatal("empty trace from defaults")
	}
	if tr.RootUUID == "" || len(tr.Hostnames) != 4 {
		t.Fatalf("defaults not applied: %+v", tr)
	}
	if !tr.Events[0].TS.Equal(time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC)) {
		t.Fatalf("default start = %v", tr.Events[0].TS)
	}
}
