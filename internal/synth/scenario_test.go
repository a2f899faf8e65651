package synth

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bp"
	"repro/internal/schema"
)

// validScenarioJSON is the parse/fuzz baseline: every feature of the DSL
// in one document.
const validScenarioJSON = `{
  "name": "t",
  "seed": 5,
  "tenants": [
    {"name": "peg", "engine": "pegasus", "weight": 2, "workflow": {"jobs": 8, "width": 4}},
    {"name": "tri", "engine": "triana", "weight": 1, "workflow": {"stages": [
      {"Name": "a", "Jobs": 2, "MeanSeconds": 10},
      {"Name": "b", "Jobs": 1, "MeanSeconds": 5, "After": ["a"]}
    ]}}
  ],
  "arrival": {"phases": [
    {"mode": "constant", "seconds": 2, "rate": 500},
    {"mode": "ramp", "seconds": 2, "rate": 500, "target_rate": 1500},
    {"mode": "step", "seconds": 2, "rate": 100, "step": 100, "slot_seconds": 0.5},
    {"mode": "spike", "seconds": 2, "rate": 200, "target_rate": 2000}
  ]},
  "faults": {
    "job_failure_rate": 0.2,
    "max_retries": 1,
    "malformed_rate": 0.02,
    "broker_drop_rate": 0.01,
    "slow_consumer": {"start_fraction": 0.2, "end_fraction": 0.4, "delay_ms": 0.1},
    "loader_restart": {"at_fraction": 0.5}
  }
}`

func TestParseScenarioValid(t *testing.T) {
	sc, err := ParseScenario([]byte(validScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "t" || len(sc.Tenants) != 2 || len(sc.Arrival.Phases) != 4 {
		t.Fatalf("parsed scenario mangled: %+v", sc)
	}
}

func TestParseScenarioRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"empty object", `{}`},
		{"unknown field", `{"name":"x","typo_field":1,"tenants":[{"name":"a","weight":1,"workflow":{}}],"arrival":{"phases":[{"seconds":1,"rate":10}]}}`},
		{"no tenants", `{"name":"x","tenants":[],"arrival":{"phases":[{"seconds":1,"rate":10}]}}`},
		{"zero weight", `{"name":"x","tenants":[{"name":"a","weight":0,"workflow":{}}],"arrival":{"phases":[{"seconds":1,"rate":10}]}}`},
		{"duplicate tenant", `{"name":"x","tenants":[{"name":"a","weight":1,"workflow":{}},{"name":"a","weight":1,"workflow":{}}],"arrival":{"phases":[{"seconds":1,"rate":10}]}}`},
		{"unknown engine", `{"name":"x","tenants":[{"name":"a","engine":"condor","weight":1,"workflow":{}}],"arrival":{"phases":[{"seconds":1,"rate":10}]}}`},
		{"negative rate", `{"name":"x","tenants":[{"name":"a","weight":1,"workflow":{}}],"arrival":{"phases":[{"seconds":1,"rate":-5}]}}`},
		{"zero seconds", `{"name":"x","tenants":[{"name":"a","weight":1,"workflow":{}}],"arrival":{"phases":[{"seconds":0,"rate":10}]}}`},
		{"all-zero rates", `{"name":"x","tenants":[{"name":"a","weight":1,"workflow":{}}],"arrival":{"phases":[{"seconds":1,"rate":0}]}}`},
		{"unknown mode", `{"name":"x","tenants":[{"name":"a","weight":1,"workflow":{}}],"arrival":{"phases":[{"mode":"sawtooth","seconds":1,"rate":10}]}}`},
		{"step without step", `{"name":"x","tenants":[{"name":"a","weight":1,"workflow":{}}],"arrival":{"phases":[{"mode":"step","seconds":1,"rate":10}]}}`},
		{"drop rate over 1", `{"name":"x","tenants":[{"name":"a","weight":1,"workflow":{}}],"arrival":{"phases":[{"seconds":1,"rate":10}]},"faults":{"broker_drop_rate":1.5}}`},
		{"retries out of range", `{"name":"x","tenants":[{"name":"a","weight":1,"workflow":{}}],"arrival":{"phases":[{"seconds":1,"rate":10}]},"faults":{"max_retries":99}}`},
		{"inverted stall window", `{"name":"x","tenants":[{"name":"a","weight":1,"workflow":{}}],"arrival":{"phases":[{"seconds":1,"rate":10}]},"faults":{"slow_consumer":{"start_fraction":0.8,"end_fraction":0.2,"delay_ms":1}}}`},
		{"restart fraction over 1", `{"name":"x","tenants":[{"name":"a","weight":1,"workflow":{}}],"arrival":{"phases":[{"seconds":1,"rate":10}]},"faults":{"loader_restart":{"at_fraction":2}}}`},
		{"cyclic stages", `{"name":"x","tenants":[{"name":"a","weight":1,"workflow":{"stages":[{"Name":"s1","Jobs":1,"MeanSeconds":1,"After":["s2"]},{"Name":"s2","Jobs":1,"MeanSeconds":1,"After":["s1"]}]}}],"arrival":{"phases":[{"seconds":1,"rate":10}]}}`},
		{"self-dependent stage", `{"name":"x","tenants":[{"name":"a","weight":1,"workflow":{"stages":[{"Name":"s1","Jobs":1,"MeanSeconds":1,"After":["s1"]}]}}],"arrival":{"phases":[{"seconds":1,"rate":10}]}}`},
		{"trailing garbage", `{"name":"x","tenants":[{"name":"a","weight":1,"workflow":{}}],"arrival":{"phases":[{"seconds":1,"rate":10}]}} extra`},
	}
	for _, tc := range cases {
		if _, err := ParseScenario([]byte(tc.json)); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	// NaN/Inf cannot arrive via JSON, but the API is public: Validate must
	// still refuse them with an error, not build a stream from them.
	base := func() *Scenario {
		sc, err := ParseScenario([]byte(validScenarioJSON))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1} {
		sc := base()
		sc.Faults.MalformedRate = v
		if err := sc.Validate(); err == nil {
			t.Errorf("malformed_rate %v accepted", v)
		}
		sc = base()
		sc.Arrival.Phases[0].Rate = v
		if err := sc.Validate(); err == nil {
			t.Errorf("rate %v accepted", v)
		}
		sc = base()
		sc.Tenants[0].Workflow.QueueDelayMean = v
		if err := sc.Validate(); err == nil {
			t.Errorf("queue_delay_mean %v accepted", v)
		}
	}
}

func TestSchedulePlanInversion(t *testing.T) {
	sc, err := ParseScenario([]byte(validScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	p := sc.Arrival.Plan(0)
	n := p.TotalEvents()
	if n < 100 {
		t.Fatalf("plan offers only %d events", n)
	}
	prev := -1.0
	for i := 0; i < n+10; i++ {
		at := p.TimeAt(i)
		if at < prev {
			t.Fatalf("TimeAt not monotone: TimeAt(%d)=%v < %v", i, at, prev)
		}
		if at < 0 || at > p.DurationSeconds() {
			t.Fatalf("TimeAt(%d)=%v outside [0,%v]", i, at, p.DurationSeconds())
		}
		prev = at
	}
	// Scaling stretches wall time but preserves the event count scaled by
	// the same factor (rates are per second of scaled wall time).
	p2 := sc.Arrival.Plan(2)
	if got, want := p2.DurationSeconds(), 2*p.DurationSeconds(); math.Abs(got-want) > 0.2 {
		t.Fatalf("scaled duration %v, want ~%v", got, want)
	}
}

// faultMatrix is the property-test grid: every fault knob on its own and
// all together.
var faultMatrix = []struct {
	name   string
	faults Faults
}{
	{"no faults", Faults{}},
	{"failures and retries", Faults{JobFailureRate: 0.3, MaxRetries: 2}},
	{"malformed", Faults{MalformedRate: 0.05}},
	{"drops", Faults{BrokerDropRate: 0.03}},
	{"everything", Faults{JobFailureRate: 0.25, MaxRetries: 1, MalformedRate: 0.04, BrokerDropRate: 0.02,
		SlowConsumer:  &SlowConsumer{StartFraction: 0.1, EndFraction: 0.3, DelayMS: 0.5},
		LoaderRestart: &LoaderRestart{AtFraction: 0.5}}},
}

func matrixScenario(f Faults) *Scenario {
	return &Scenario{
		Name: "prop",
		Seed: 99,
		Tenants: []Tenant{
			{Name: "peg", Engine: "pegasus", Weight: 2, Workflow: Shape{Jobs: 10, Width: 5}},
			{Name: "dart", Engine: "dart", Weight: 1, Workflow: Shape{Jobs: 8, SubWorkflows: 2}},
			{Name: "tri", Engine: "triana", Weight: 1},
		},
		Arrival: Schedule{Phases: []Phase{{Mode: "constant", Seconds: 2, Rate: 1200}}},
		Faults:  f,
	}
}

func streamFingerprint(s *Stream) string {
	var b bytes.Buffer
	for i := range s.Lines {
		ln := &s.Lines[i]
		fmt.Fprintf(&b, "%.6f|%s|%v|%v|%s\n", ln.At, ln.Key, ln.Malformed, ln.Drop, ln.Body)
	}
	return b.String()
}

func TestBuildStreamDeterministic(t *testing.T) {
	// Same seed + same config => byte-identical stream, under every fault
	// knob. This is what lets the soak report predict a run exactly.
	for _, tc := range faultMatrix {
		t.Run(tc.name, func(t *testing.T) {
			sc := matrixScenario(tc.faults)
			if err := sc.Validate(); err != nil {
				t.Fatal(err)
			}
			a, err := BuildStream(sc, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := BuildStream(matrixScenario(tc.faults), 0)
			if err != nil {
				t.Fatal(err)
			}
			fa, fb := streamFingerprint(a), streamFingerprint(b)
			if fa != fb {
				t.Fatal("same scenario produced different streams")
			}
			if a.Acct != b.Acct {
				t.Fatalf("accounting differs: %+v vs %+v", a.Acct, b.Acct)
			}
			// A different seed must not reproduce the stream.
			scc := matrixScenario(tc.faults)
			scc.Seed = 100
			c, err := BuildStream(scc, 0)
			if err != nil {
				t.Fatal(err)
			}
			if streamFingerprint(c) == fa {
				t.Fatal("different seeds produced identical streams")
			}
		})
	}
}

func TestBuildStreamAccountingInternallyConsistent(t *testing.T) {
	for _, tc := range faultMatrix {
		t.Run(tc.name, func(t *testing.T) {
			s, err := BuildStream(matrixScenario(tc.faults), 0)
			if err != nil {
				t.Fatal(err)
			}
			malformed, drops, events := 0, 0, 0
			for i := range s.Lines {
				if s.Lines[i].Malformed {
					malformed++
					if s.Lines[i].Drop {
						t.Fatal("malformed line marked as injected drop")
					}
				} else {
					events++
				}
				if s.Lines[i].Drop {
					drops++
				}
			}
			if malformed != s.Acct.InjectedMalformed || drops != s.Acct.InjectedDrops ||
				events != s.Acct.Events || len(s.Lines) != s.Acct.Emitted ||
				s.Acct.ToPublish != s.Acct.Emitted-s.Acct.InjectedDrops {
				t.Fatalf("ledger mismatch: counted m=%d d=%d e=%d n=%d vs %+v",
					malformed, drops, events, len(s.Lines), s.Acct)
			}
			for i := 1; i < len(s.Lines); i++ {
				if s.Lines[i].At < s.Lines[i-1].At {
					t.Fatalf("publish offsets not monotone at line %d", i)
				}
			}
		})
	}
}

// TestBuildStreamCausallyValid parses every real line back and checks the
// schedule is causally valid per job instance under every fault knob: no
// interval ends before it starts, retry sequence numbers are consecutive
// from 1, and a retry never begins before the previous attempt ended.
func TestBuildStreamCausallyValid(t *testing.T) {
	for _, tc := range faultMatrix {
		t.Run(tc.name, func(t *testing.T) {
			s, err := BuildStream(matrixScenario(tc.faults), 0)
			if err != nil {
				t.Fatal(err)
			}
			type inst struct {
				submitStart, submitEnd, mainStart, mainEnd float64
			}
			insts := map[string]map[int64]*inst{} // wf|job -> seq -> times
			get := func(ev *bp.Event) *inst {
				key := ev.Get(schema.AttrXwfID) + "|" + ev.Get(schema.AttrJobID)
				seq, _ := ev.Int(schema.AttrJobInstID)
				if insts[key] == nil {
					insts[key] = map[int64]*inst{}
				}
				if insts[key][seq] == nil {
					insts[key][seq] = &inst{submitStart: -1, submitEnd: -1, mainStart: -1, mainEnd: -1}
				}
				return insts[key][seq]
			}
			for i := range s.Lines {
				ln := &s.Lines[i]
				if ln.Malformed {
					continue
				}
				ev, perr := bp.Parse(string(ln.Body))
				if perr != nil {
					t.Fatalf("real line failed to parse: %v", perr)
				}
				at := float64(ev.TS.UnixNano()) / 1e9
				switch ev.Type {
				case schema.SubmitStart:
					get(ev).submitStart = at
				case schema.SubmitEnd:
					get(ev).submitEnd = at
				case schema.MainStart:
					get(ev).mainStart = at
				case schema.MainEnd:
					get(ev).mainEnd = at
				case schema.InvEnd:
					if d, ok := ev.Float(schema.AttrDur); !ok || d < 0 {
						t.Fatalf("invocation with negative/missing dur: %v %v", d, ok)
					}
				}
			}
			jobs := 0
			for key, seqs := range insts {
				var prevEnd float64 = -1
				for want := int64(1); want <= int64(len(seqs)); want++ {
					in, ok := seqs[want]
					if !ok {
						t.Fatalf("%s: retry seqs not consecutive: missing %d of %d", key, want, len(seqs))
					}
					if in.submitStart > in.submitEnd || in.mainStart > in.mainEnd {
						t.Fatalf("%s seq %d: interval ends before it starts: %+v", key, want, in)
					}
					if want > 1 && in.submitStart < prevEnd {
						t.Fatalf("%s seq %d: retry submitted at %v before previous attempt ended at %v",
							key, want, in.submitStart, prevEnd)
					}
					prevEnd = in.mainEnd
					jobs++
				}
			}
			if jobs == 0 {
				t.Fatal("no job instances found in stream")
			}
		})
	}
}

func TestStageDAGSchedulesCausally(t *testing.T) {
	stages := []StageSpec{
		{Name: "ingest", Jobs: 3, MeanSeconds: 30, StddevPct: 0.2},
		{Name: "proc", Jobs: 6, MeanSeconds: 60, StddevPct: 0.3, After: []string{"ingest"}},
		{Name: "merge", Jobs: 1, MeanSeconds: 10, StddevPct: 0.1, After: []string{"proc", "ingest"}},
	}
	if err := ValidateStages(stages); err != nil {
		t.Fatal(err)
	}
	tr := Generate(Config{Seed: 21, Stages: stages, FailureRate: 0.2, MaxRetries: 1})
	// Collect per-job intervals and the declared edges.
	firstSubmit := map[string]float64{}
	lastEnd := map[string]float64{}
	type edge struct{ parent, child string }
	var edges []edge
	base := tr.Events[0].TS
	for _, ev := range tr.Events {
		at := ev.TS.Sub(base).Seconds()
		switch ev.Type {
		case schema.SubmitStart:
			job := ev.Get(schema.AttrJobID)
			if _, ok := firstSubmit[job]; !ok {
				firstSubmit[job] = at
			}
		case schema.MainEnd:
			job := ev.Get(schema.AttrJobID)
			if at > lastEnd[job] {
				lastEnd[job] = at
			}
		case schema.JobEdge:
			edges = append(edges, edge{ev.Get("parent.job.id"), ev.Get("child.job.id")})
		}
	}
	if len(edges) == 0 {
		t.Fatal("stage DAG produced no job edges")
	}
	for _, e := range edges {
		ps, ok1 := lastEnd[e.parent]
		cs, ok2 := firstSubmit[e.child]
		if !ok1 || !ok2 {
			t.Fatalf("edge %v references unscheduled job", e)
		}
		if cs < ps {
			t.Errorf("child %s submitted at %.2fs before parent %s ended at %.2fs", e.child, cs, e.parent, ps)
		}
	}
	for _, j := range []string{"ingest", "proc", "merge"} {
		found := false
		for job := range firstSubmit {
			if strings.HasPrefix(job, j+"_j") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no jobs from stage %s", j)
		}
	}
}

func TestMainErrorEmittedPerFailedAttempt(t *testing.T) {
	// Regression for the failed-invocation error event: every failing
	// attempt (retried or terminal) must announce itself with exactly one
	// stampede.job_inst.main.error at Error level.
	tr := Generate(Config{Seed: 31, Jobs: 80, FailureRate: 0.4, MaxRetries: 2})
	failedAttempts := tr.TotalRetries + tr.FailedJobs
	if failedAttempts == 0 {
		t.Fatal("no failures at rate 0.4")
	}
	count := 0
	for _, ev := range tr.Events {
		if ev.Type != schema.MainError {
			continue
		}
		count++
		if ev.Get(schema.AttrLevel) != bp.LevelError {
			t.Fatalf("main.error at level %q, want Error", ev.Get(schema.AttrLevel))
		}
		if code, _ := ev.Int(schema.AttrExitcode); code == 0 {
			t.Fatal("main.error with exit code 0")
		}
	}
	if count != failedAttempts {
		t.Fatalf("main.error events %d, want %d (retries %d + failed %d)",
			count, failedAttempts, tr.TotalRetries, tr.FailedJobs)
	}
	// And a clean trace must emit none.
	clean := Generate(Config{Seed: 31, Jobs: 40})
	for _, ev := range clean.Events {
		if ev.Type == schema.MainError {
			t.Fatal("main.error in a failure-free trace")
		}
	}
}

func FuzzScenarioConfig(f *testing.F) {
	f.Add([]byte(validScenarioJSON))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","seed":-1,"tenants":[{"name":"a","weight":1,"workflow":{}}],"arrival":{"phases":[{"seconds":1,"rate":10}]}}`))
	f.Add([]byte(`{"name":"x","tenants":[{"name":"a","weight":1,"workflow":{"stages":[{"Name":"s","Jobs":1,"MeanSeconds":1,"After":["s"]}]}}],"arrival":{"phases":[{"seconds":1,"rate":1}]}}`))
	f.Add([]byte(`{"name":"x","tenants":[{"name":"a","weight":1,"workflow":{}}],"arrival":{"phases":[{"mode":"step","seconds":1e308,"rate":1e308,"step":1e308,"slot_seconds":1e-308}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return // rejected with an error, never a panic: that's the contract
		}
		// Anything accepted must satisfy the validated invariants.
		if sc.Validate() != nil {
			t.Fatal("ParseScenario returned a scenario its own Validate rejects")
		}
		for _, p := range sc.Arrival.Phases {
			for _, v := range []float64{p.Seconds, p.Rate, p.TargetRate, p.Step, p.SlotSeconds} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("accepted non-finite/negative phase value %v", v)
				}
			}
		}
		for _, tn := range sc.Tenants {
			if tn.Weight < 1 {
				t.Fatalf("accepted tenant weight %d", tn.Weight)
			}
			if ValidateStages(tn.Workflow.Stages) != nil {
				t.Fatal("accepted invalid stage graph")
			}
		}
	})
}
