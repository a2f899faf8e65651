package synth

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bp"
)

// Line is one unit of the built scenario stream: either a rendered BP
// event or an injected-malformed garbage line, with its planned publish
// offset and fault annotations. The soak runner publishes (or,
// for Drop lines, discards-and-counts) these in order; the report audits
// the run against the same annotations.
type Line struct {
	At        float64   // planned publish offset, seconds from run start
	TS        time.Time // event timestamp; zero for malformed lines
	Key       string    // routing key (the BP event type)
	Body      []byte
	WF        string // workflow uuid; "" for malformed lines
	Malformed bool   // injected garbage: the loader must count it Malformed
	Drop      bool   // injected broker drop: never published, only counted
}

// Accounting is the stream's own ledger; the soak report checks the live
// run against it event for event.
type Accounting struct {
	Emitted           int // all lines built: Events + InjectedMalformed
	Events            int // real BP event lines
	InjectedMalformed int // garbage lines inserted
	InjectedDrops     int // real event lines marked Drop
	ToPublish         int // Emitted - InjectedDrops
}

// Stream is a fully built scenario: every line annotated, every
// expectation precomputed.
type Stream struct {
	Scenario *Scenario
	Plan     *SchedulePlan
	Lines    []Line

	Workflows  int
	WFLastTS   map[string]time.Time // workflow uuid -> TS of its final event
	DroppedWFs map[string]bool      // workflows with >= 1 injected-drop line

	// FailedJobs/TotalRetries aggregate the generator's failure injection
	// across all workflows; each failing attempt emitted one
	// stampede.job_inst.main.error event.
	FailedJobs   int
	TotalRetries int

	Acct Accounting
}

// garbageLines are the injected-malformed variants; each is rejected by
// bp.Parse for a different reason (no pairs, missing event, bad
// timestamp, unterminated quote).
var garbageLines = []string{
	"this line has no key value structure at all %%",
	"ts=2012-03-13T12:00:00.000000Z",
	"ts=@@not-a-time event=stampede.xwf.start",
	`ts=2012-03-13T12:00:00.000000Z event=stampede.xwf.start k="unterminated`,
}

// BuildStream turns a validated scenario into a deterministic annotated
// line stream lasting durationSeconds (0 = the schedule's natural
// length). The same scenario and duration always yield a byte-identical
// stream — the soak report leans on that to predict the run exactly.
//
// The build runs on every core (runtime.GOMAXPROCS): a worker pool
// generates and renders the workflows, while everything that depends on
// order (which workflows exist, the publish order, the fault draws, the
// ledger) is decided by one goroutine in a fixed order, so the stream
// does not depend on the core count.
func BuildStream(sc *Scenario, durationSeconds float64) (*Stream, error) {
	scale := 0.0
	natural := 0.0
	for _, ph := range sc.Arrival.Phases {
		natural += ph.Seconds
	}
	if durationSeconds > 0 && natural > 0 {
		scale = durationSeconds / natural
	}
	plan := sc.Arrival.Plan(scale)
	total := plan.TotalEvents()
	maxEvents := sc.MaxEvents
	if maxEvents == 0 {
		maxEvents = DefaultMaxEvents
	}
	if total > maxEvents {
		return nil, fmt.Errorf("scenario %q: schedule offers %d events; max_events is %d", sc.Name, total, maxEvents)
	}

	s := &Stream{
		Scenario:   sc,
		Plan:       plan,
		WFLastTS:   map[string]time.Time{},
		DroppedWFs: map[string]bool{},
	}
	wfs, err := s.generate(total, maxEvents)
	if err != nil {
		return nil, err
	}
	s.assemble(mergeOrder(plan, wfs), wfs)
	return s, nil
}

// workflow is one generated workflow, already rendered: a line per event
// in the order Generate emitted them, everything filled but the publish
// offset and the fault marks, and each event's offset in seconds from the
// workflow's first.
type workflow struct {
	lines   []Line
	offs    []float64
	arrival float64 // wall offset its first event is due under the schedule
	span    float64 // the trace's MakespanSeconds
}

// generate builds workflows until the population covers the offered
// events. Workflow k is a pure function of the scenario and k, so a pool
// of workers generates and renders them in parallel, each claiming the
// next k; this goroutine takes them strictly in order of k, so which
// workflows make up the stream and everything summed over them is the
// same on any number of cores. It stops the pool the moment the
// population is complete: no worker starts a workflow after that.
func (s *Stream) generate(total, maxEvents int) ([]workflow, error) {
	sc := s.Scenario
	// Weighted round-robin over tenants, deterministic in the arrival
	// index: arrival k belongs to the tenant owning slot k mod totalWeight.
	totalWeight := 0
	for _, t := range sc.Tenants {
		totalWeight += t.Weight
	}
	pick := func(k int) *Tenant {
		w := k % totalWeight
		for i := range sc.Tenants {
			if w < sc.Tenants[i].Weight {
				return &sc.Tenants[i]
			}
			w -= sc.Tenants[i].Weight
		}
		return &sc.Tenants[0]
	}

	type generated struct {
		k  int
		tr *Trace // Events dropped once rendered
		w  workflow
	}
	workers := runtime.GOMAXPROCS(0)
	results := make(chan generated, workers)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var arena []byte
			for !stop.Load() {
				k := int(next.Add(1) - 1)
				tr := Generate(pick(k).config(sc, k))
				g := generated{k: k, tr: tr, w: workflow{span: tr.MakespanSeconds}}
				g.w.lines, g.w.offs, arena = render(tr.Events, arena)
				tr.Events = nil
				results <- g
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	defer func() {
		stop.Store(true)
		for range results { // unblock the workers still delivering
		}
	}()

	var wfs []workflow
	pending := map[int]generated{}
	built := 0
	for k := 0; built < total || k == 0; k++ {
		g, ok := pending[k]
		for !ok {
			r := <-results
			pending[r.k] = r
			g, ok = pending[k]
		}
		delete(pending, k)
		if built+len(g.w.lines) > maxEvents {
			return nil, fmt.Errorf("scenario %q: workflow population exceeds max_events %d", sc.Name, maxEvents)
		}
		g.w.arrival = s.Plan.TimeAt(built)
		wfs = append(wfs, g.w)
		built += len(g.w.lines)
		s.FailedJobs += g.tr.FailedJobs
		s.TotalRetries += g.tr.TotalRetries
		s.Workflows++
		s.WFLastTS[g.tr.RootUUID] = time.Time{}
		for _, u := range g.tr.SubUUIDs {
			s.WFLastTS[u] = time.Time{}
		}
	}
	s.Acct.Events = built
	return wfs, nil
}

// arenaSize is the block line bodies are encoded into or copied into.
const arenaSize = 1 << 20

// render turns one workflow's events into lines, in order, and their
// offsets from the first event. Bodies are encoded back to back into
// arena, which it returns for the next workflow; a block is retired once
// less than arenaSize/64 is left, and a line that outgrows it is still
// correct, append moves it. Only the lines outlive the call: the events
// and their attributes are garbage as soon as the workflow is rendered.
func render(evs []*bp.Event, arena []byte) ([]Line, []float64, []byte) {
	lines := make([]Line, len(evs))
	offs := make([]float64, len(evs))
	base := evs[0].TS
	for i, ev := range evs {
		if cap(arena)-len(arena) < arenaSize/64 {
			arena = make([]byte, 0, arenaSize)
		}
		n := len(arena)
		arena = ev.AppendFormat(arena)
		lines[i] = Line{
			TS:   ev.TS.Truncate(time.Microsecond),
			Key:  ev.Type,
			Body: arena[n:],
			WF:   ev.Get("xwf.id"),
		}
		offs[i] = ev.TS.Sub(base).Seconds()
	}
	return lines, offs, arena
}

// carve copies b to the end of block, starting a new block when b does
// not fit, and returns the copy and the block. The copy is capped at its
// own length, so appending to one line can never write into the next.
func carve(block, b []byte) ([]byte, []byte) {
	if cap(block)-len(block) < len(b) {
		block = make([]byte, 0, max(arenaSize, len(b)))
	}
	n := len(block)
	block = append(block, b...)
	return block[n:len(block):len(block)], block
}

// entry is one event's place in the publish order.
type entry struct {
	sortT float64
	wfIdx int32
	evIdx int32
}

// mergeOrder merges the per-workflow event lists into one publish order:
// workflow j enters at the wall offset its first event is due under the
// schedule, and its simulated timeline is compressed so late arrivals
// interleave with earlier long-running workflows. Ties break on
// (workflow, event) index, which is the order the entries are listed in,
// so each workflow's events keep their causal order and the result is
// the one a stable sort on sortT gives.
func mergeOrder(plan *SchedulePlan, wfs []workflow) []entry {
	maxMakespan := 0.0
	n := 0
	for _, w := range wfs {
		maxMakespan = max(maxMakespan, w.span)
		n += len(w.offs)
	}
	compress := 1.0
	if maxMakespan > 0 {
		compress = plan.DurationSeconds() / (maxMakespan + plan.DurationSeconds())
	}
	entries := make([]entry, 0, n)
	for j, w := range wfs {
		for i, off := range w.offs {
			entries = append(entries, entry{sortT: w.arrival + off*compress, wfIdx: int32(j), evIdx: int32(i)})
		}
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if c := cmp.Compare(a.sortT, b.sortT); c != 0 {
			return c
		}
		if c := cmp.Compare(a.wfIdx, b.wfIdx); c != 0 {
			return c
		}
		return cmp.Compare(a.evIdx, b.evIdx)
	})
	return entries
}

// assemble lays the rendered lines out in publish order, giving each its
// planned offset, and draws every fault in that order: a garbage line
// inserted before an event, or an event marked Drop. The fault rng is
// separate from the generator rngs so tweaking a fault knob never
// reshapes the workflows themselves — only which lines get mangled or
// dropped. Bodies are copied out of the workers' blocks into blocks of
// their own in publish order, so that a consumer reading the stream front
// to back, as every run does, reads its bodies front to back too.
func (s *Stream) assemble(entries []entry, wfs []workflow) {
	frng := rand.New(rand.NewSource(s.Scenario.Seed ^ 0x5eedfa07))
	f := &s.Scenario.Faults
	s.Lines = make([]Line, 0, len(entries)+len(entries)/16)
	var block []byte
	for i, en := range entries {
		at := s.Plan.TimeAt(i)
		if f.MalformedRate > 0 && frng.Float64() < f.MalformedRate {
			g := garbageLines[s.Acct.InjectedMalformed%len(garbageLines)]
			s.Lines = append(s.Lines, Line{
				At:        at,
				Key:       "stampede.injected.garbage",
				Body:      slices.Clip([]byte(g)),
				Malformed: true,
			})
			s.Acct.InjectedMalformed++
		}
		ln := wfs[en.wfIdx].lines[en.evIdx]
		ln.At = at
		ln.Body, block = carve(block, ln.Body)
		if f.BrokerDropRate > 0 && frng.Float64() < f.BrokerDropRate {
			ln.Drop = true
			s.Acct.InjectedDrops++
			if ln.WF != "" {
				s.DroppedWFs[ln.WF] = true
			}
		}
		s.Lines = append(s.Lines, ln)
		if ln.WF != "" {
			// Rendered BP timestamps carry microseconds; TS is at the same
			// precision the loader will see after the round trip.
			if last, ok := s.WFLastTS[ln.WF]; !ok || ln.TS.After(last) {
				s.WFLastTS[ln.WF] = ln.TS
			}
		}
	}
	s.Acct.Emitted = len(s.Lines)
	s.Acct.ToPublish = s.Acct.Emitted - s.Acct.InjectedDrops
}
