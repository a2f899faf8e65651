// Scenario engine: a declarative workload DSL over the synthetic trace
// generator. A scenario file declares a mixed tenant population (Pegasus,
// Triana and DART shapes in configurable proportions), an arrival-rate
// schedule (constant, ramp, step, spike — the vhive trace-synthesizer
// vocabulary) and a fault plan (job failures and retries, malformed BP
// lines, broker drops, slow consumers, a mid-run loader restart). Building
// a scenario yields a fully annotated, deterministic event stream the
// stampede-soak runner paces through mq → loader → archive and then
// audits event by event.
package synth

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Scenario is the root of the workload DSL.
type Scenario struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Seed        int64    `json:"seed"`
	Tenants     []Tenant `json:"tenants"`
	Arrival     Schedule `json:"arrival"`
	Faults      Faults   `json:"faults,omitempty"`

	// MaxAllocsPerEvent, when > 0, makes the soak report fail if the
	// whole-run allocation count per applied event exceeds it — the same
	// ceiling discipline as hotpath_alloc_test.go, end to end.
	MaxAllocsPerEvent float64 `json:"max_allocs_per_event,omitempty"`

	// MaxEvents bounds the built stream (0 = DefaultMaxEvents): a schedule
	// asking for more events than this is a config error, not an OOM.
	MaxEvents int `json:"max_events,omitempty"`

	// Subscribers attaches this many live SSE clients to the soak run's
	// dashboard stream endpoint, exercising the materialized-view push
	// path (delta coalescing, the shared frame log, slow-consumer resync)
	// end to end under ingest load. 0 = no push serving.
	Subscribers int `json:"subscribers,omitempty"`
}

// DefaultMaxEvents bounds a built scenario stream when Scenario.MaxEvents
// is zero.
const DefaultMaxEvents = 3_000_000

// Tenant is one workflow population in the mix.
type Tenant struct {
	Name   string `json:"name"`
	Engine string `json:"engine"` // pegasus | triana | dart | generic
	Weight int    `json:"weight"` // relative share of workflow arrivals

	Workflow Shape `json:"workflow"`
}

// Shape parameterizes the workflows a tenant submits; zero values fall
// back to the engine preset and then to the generator defaults.
type Shape struct {
	Jobs           int         `json:"jobs,omitempty"`
	Width          int         `json:"width,omitempty"`
	TasksPerJob    int         `json:"tasks_per_job,omitempty"`
	Hosts          int         `json:"hosts,omitempty"`
	SlotsPerHost   int         `json:"slots_per_host,omitempty"`
	QueueDelayMean float64     `json:"queue_delay_mean,omitempty"`
	SubWorkflows   int         `json:"sub_workflows,omitempty"`
	JobTypes       []JobType   `json:"job_types,omitempty"`
	Stages         []StageSpec `json:"stages,omitempty"`
}

// Schedule is a sequence of arrival-rate phases; rates are BP events per
// second of wall time.
type Schedule struct {
	Phases []Phase `json:"phases"`
}

// Phase is one segment of the arrival schedule.
type Phase struct {
	// Mode: "constant" holds Rate; "ramp" moves linearly from Rate to
	// TargetRate; "step" starts at Rate and adds Step every SlotSeconds
	// (the vhive RPS start/step/target schedule); "spike" holds Rate but
	// bursts to TargetRate for the middle fifth of the phase.
	Mode        string  `json:"mode"`
	Seconds     float64 `json:"seconds"`
	Rate        float64 `json:"rate"`
	TargetRate  float64 `json:"target_rate,omitempty"`
	Step        float64 `json:"step,omitempty"`
	SlotSeconds float64 `json:"slot_seconds,omitempty"`
}

// Faults is the injected-failure plan. Every knob defaults to off.
type Faults struct {
	// JobFailureRate/MaxRetries drive the generator's failure injection
	// (exit code 1 + stampede.job_inst.main.error) for every tenant.
	JobFailureRate float64 `json:"job_failure_rate,omitempty"`
	MaxRetries     int     `json:"max_retries,omitempty"`

	// MalformedRate inserts unparseable garbage lines into the stream at
	// this per-line probability, simulating a corrupting producer.
	MalformedRate float64 `json:"malformed_rate,omitempty"`

	// BrokerDropRate discards real lines before they reach the broker at
	// this probability — the injected analogue of a full queue.
	BrokerDropRate float64 `json:"broker_drop_rate,omitempty"`

	// QueueCapacity bounds the soak queue (0 = mq.DefaultQueueCapacity);
	// small values force natural overflow drops.
	QueueCapacity int `json:"queue_capacity,omitempty"`

	// SlowConsumer stalls the consumer by DelayMS per message between the
	// given run fractions.
	SlowConsumer *SlowConsumer `json:"slow_consumer,omitempty"`

	// LoaderRestart tears the loader down mid-run at the given fraction of
	// the publish window and starts a fresh one on the same queue.
	LoaderRestart *LoaderRestart `json:"loader_restart,omitempty"`
}

// SlowConsumer describes a consumer stall window.
type SlowConsumer struct {
	StartFraction float64 `json:"start_fraction"`
	EndFraction   float64 `json:"end_fraction"`
	DelayMS       float64 `json:"delay_ms"`
}

// LoaderRestart describes a mid-run loader restart.
type LoaderRestart struct {
	AtFraction float64 `json:"at_fraction"`
}

// ParseScenario decodes and validates a scenario file. Unknown fields are
// rejected so typos fail loudly instead of silently disabling a fault.
func ParseScenario(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// Trailing garbage after the closing brace is almost always a merge
	// accident; surface it.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after scenario object")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// badRate reports rates that are NaN, infinite or negative.
func badRate(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) || v < 0 }

// badFrac reports probabilities/fractions outside [0, 1].
func badFrac(v float64) bool { return badRate(v) || v > 1 }

// Validate checks the scenario for the whole class of configs the engine
// refuses to run: non-finite or negative rates, empty tenant mixes,
// unknown modes and engines, out-of-range probabilities and cyclic stage
// topologies. It returns an error, never panics — FuzzScenarioConfig
// holds it to that.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("scenario %q: at least one tenant is required", s.Name)
	}
	seen := map[string]bool{}
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if t.Name == "" {
			return fmt.Errorf("scenario %q: tenant %d has no name", s.Name, i)
		}
		if seen[t.Name] {
			return fmt.Errorf("scenario %q: duplicate tenant %q", s.Name, t.Name)
		}
		seen[t.Name] = true
		switch t.Engine {
		case "pegasus", "triana", "dart", "generic", "":
		default:
			return fmt.Errorf("scenario %q: tenant %q: unknown engine %q", s.Name, t.Name, t.Engine)
		}
		if t.Weight < 1 {
			return fmt.Errorf("scenario %q: tenant %q: weight %d; need >= 1", s.Name, t.Name, t.Weight)
		}
		w := &t.Workflow
		for name, v := range map[string]int{
			"jobs": w.Jobs, "width": w.Width, "tasks_per_job": w.TasksPerJob,
			"hosts": w.Hosts, "slots_per_host": w.SlotsPerHost, "sub_workflows": w.SubWorkflows,
		} {
			if v < 0 {
				return fmt.Errorf("scenario %q: tenant %q: negative %s", s.Name, t.Name, name)
			}
		}
		if badRate(w.QueueDelayMean) {
			return fmt.Errorf("scenario %q: tenant %q: queue_delay_mean must be finite and non-negative", s.Name, t.Name)
		}
		for _, jt := range w.JobTypes {
			if jt.Name == "" || jt.Weight < 1 || badRate(jt.MeanSeconds) || badRate(jt.StddevPct) {
				return fmt.Errorf("scenario %q: tenant %q: invalid job type %+v", s.Name, t.Name, jt)
			}
		}
		if err := ValidateStages(w.Stages); err != nil {
			return fmt.Errorf("scenario %q: tenant %q: %w", s.Name, t.Name, err)
		}
	}
	if len(s.Arrival.Phases) == 0 {
		return fmt.Errorf("scenario %q: at least one arrival phase is required", s.Name)
	}
	anyRate := false
	for i, p := range s.Arrival.Phases {
		if badRate(p.Seconds) || p.Seconds == 0 {
			return fmt.Errorf("scenario %q: phase %d: seconds must be finite and positive", s.Name, i)
		}
		if badRate(p.Rate) || badRate(p.TargetRate) || badRate(p.Step) || badRate(p.SlotSeconds) {
			return fmt.Errorf("scenario %q: phase %d: rates must be finite and non-negative", s.Name, i)
		}
		switch p.Mode {
		case "constant", "":
		case "ramp", "spike":
			// target_rate may legitimately be below rate (ramp down).
		case "step":
			if p.Step == 0 || p.SlotSeconds == 0 {
				return fmt.Errorf("scenario %q: phase %d: step mode needs step and slot_seconds > 0", s.Name, i)
			}
		default:
			return fmt.Errorf("scenario %q: phase %d: unknown mode %q", s.Name, i, p.Mode)
		}
		if p.Rate > 0 || p.TargetRate > 0 {
			anyRate = true
		}
	}
	if !anyRate {
		return fmt.Errorf("scenario %q: arrival schedule never exceeds 0 events/s", s.Name)
	}
	f := &s.Faults
	for name, v := range map[string]float64{
		"job_failure_rate": f.JobFailureRate,
		"malformed_rate":   f.MalformedRate,
		"broker_drop_rate": f.BrokerDropRate,
	} {
		if badFrac(v) {
			return fmt.Errorf("scenario %q: faults.%s must be in [0, 1]", s.Name, name)
		}
	}
	if f.MaxRetries < 0 || f.MaxRetries > 16 {
		return fmt.Errorf("scenario %q: faults.max_retries %d out of range [0, 16]", s.Name, f.MaxRetries)
	}
	if f.QueueCapacity < 0 {
		return fmt.Errorf("scenario %q: faults.queue_capacity must be >= 0", s.Name)
	}
	if sc := f.SlowConsumer; sc != nil {
		if badFrac(sc.StartFraction) || badFrac(sc.EndFraction) || sc.EndFraction <= sc.StartFraction {
			return fmt.Errorf("scenario %q: faults.slow_consumer fractions must satisfy 0 <= start < end <= 1", s.Name)
		}
		if badRate(sc.DelayMS) {
			return fmt.Errorf("scenario %q: faults.slow_consumer.delay_ms must be finite and non-negative", s.Name)
		}
	}
	if lr := f.LoaderRestart; lr != nil {
		if badFrac(lr.AtFraction) {
			return fmt.Errorf("scenario %q: faults.loader_restart.at_fraction must be in [0, 1]", s.Name)
		}
	}
	if badRate(s.MaxAllocsPerEvent) {
		return fmt.Errorf("scenario %q: max_allocs_per_event must be finite and non-negative", s.Name)
	}
	if s.MaxEvents < 0 {
		return fmt.Errorf("scenario %q: max_events must be >= 0", s.Name)
	}
	if s.Subscribers < 0 || s.Subscribers > 100_000 {
		return fmt.Errorf("scenario %q: subscribers %d out of range [0, 100000]", s.Name, s.Subscribers)
	}
	return nil
}

// config maps a tenant onto the generator for one workflow arrival.
// Engine presets fill what the shape leaves open: Pegasus runs layered
// DAGs, Triana runs a staged pipeline, DART a meta-workflow of
// sub-workflow bundles.
func (t *Tenant) config(s *Scenario, k int) Config {
	w := t.Workflow
	cfg := Config{
		Seed:           s.Seed + int64(k)*1_000_003, // distinct, reproducible per arrival
		Label:          fmt.Sprintf("%s-%s-%05d", sanitizeLabel(s.Name), sanitizeLabel(t.Name), k),
		Jobs:           w.Jobs,
		Width:          w.Width,
		TasksPerJob:    w.TasksPerJob,
		Hosts:          w.Hosts,
		SlotsPerHost:   w.SlotsPerHost,
		QueueDelayMean: w.QueueDelayMean,
		SubWorkflows:   w.SubWorkflows,
		JobTypes:       w.JobTypes,
		Stages:         w.Stages,
		FailureRate:    s.Faults.JobFailureRate,
		MaxRetries:     s.Faults.MaxRetries,
	}
	switch t.Engine {
	case "triana":
		if len(cfg.Stages) == 0 && cfg.Jobs == 0 {
			cfg.Stages = []StageSpec{
				{Name: "ingest", Jobs: 2, MeanSeconds: 20, StddevPct: 0.1},
				{Name: "process", Jobs: 8, MeanSeconds: 90, StddevPct: 0.3, After: []string{"ingest"}},
				{Name: "merge", Jobs: 1, MeanSeconds: 15, StddevPct: 0.1, After: []string{"process"}},
			}
		}
	case "dart":
		if cfg.SubWorkflows == 0 {
			cfg.SubWorkflows = 4
		}
		if cfg.Jobs == 0 {
			cfg.Jobs = 24
		}
	case "pegasus":
		if cfg.Jobs == 0 {
			cfg.Jobs = 20
		}
		if cfg.Width == 0 && len(cfg.Stages) == 0 {
			cfg.Width = 5
		}
	}
	return cfg
}

// sanitizeLabel keeps scenario-derived labels BP- and uuid-seed-safe.
func sanitizeLabel(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
