package synth

import (
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
var garbageLines = [][]byte{
	[]byte("this line has no key value structure at all %%"),
	[]byte("ts=2012-03-13T12:00:00.000000Z"),
	[]byte("ts=@@not-a-time event=stampede.xwf.start"),
	[]byte(`ts=2012-03-13T12:00:00.000000Z event=stampede.xwf.start k="unterminated`),
}

// BuildStream turns a validated scenario into a deterministic annotated
// line stream lasting durationSeconds (0 = the schedule's natural
// length). The same scenario and duration always yield a byte-identical
// stream — the soak report leans on that to predict the run exactly.
//
// The build runs on every core (runtime.GOMAXPROCS): a worker pool
// generates and renders the workflows, and the lines are laid out in
// publish order in parallel ranges, while everything that depends on
// order (which workflows exist, the publish order, the fault draws, the
// ledger) is decided by one goroutine in a fixed order, so the stream
// does not depend on the core count. The stream is complete when it
// returns, and no goroutine it started is still running.
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
// next k and generating it into a slab of its own, which it reuses once
// the workflow is rendered; this goroutine takes them strictly in order of
// k, so which workflows make up the stream and everything summed over them
// is the same on any number of cores. It stops the pool the moment the
// population is complete: no worker starts a workflow after that, and
// every worker has exited when it returns.
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
		k    int
		tr   *Trace // Events dropped once rendered
		last []time.Time
		w    workflow
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
			var sl slab
			var arena []byte
			for !stop.Load() {
				k := int(next.Add(1) - 1)
				tr := sl.generate(pick(k).config(sc, k))
				g := generated{k: k, tr: tr, w: workflow{span: tr.MakespanSeconds}}
				g.w.lines, g.w.offs, arena = render(tr.Events, arena)
				g.last = lastTS(tr, g.w.lines)
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
		s.WFLastTS[g.tr.RootUUID] = g.last[0]
		for i, u := range g.tr.SubUUIDs {
			s.WFLastTS[u] = g.last[1+i]
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

// lastTS returns the TS of the final line of each of the trace's
// workflows, the root first and then its sub-workflows in order; zero for
// one with no line. TS is at the microsecond precision the loader sees
// after the round trip.
func lastTS(tr *Trace, lines []Line) []time.Time {
	last := make([]time.Time, 1+len(tr.SubUUIDs))
	for i := range lines {
		ln := &lines[i]
		j := 0
		if ln.WF != tr.RootUUID {
			if j = slices.Index(tr.SubUUIDs, ln.WF); j < 0 {
				continue
			}
			j++
		}
		if ln.TS.After(last[j]) {
			last[j] = ln.TS
		}
	}
	return last
}

// entry is one event's place in the publish order.
type entry struct {
	wfIdx int32
	evIdx int32
}

// mergeOrder merges the per-workflow event lists into one publish order:
// workflow j enters at the wall offset its first event is due under the
// schedule, and its simulated timeline is compressed so late arrivals
// interleave with earlier long-running workflows. Ties break on
// (workflow, event) index, so each workflow's events keep their causal
// order and the result is the one a stable sort on the due time gives.
//
// A workflow's events are sorted by time, so their due times never fall:
// each workflow is a sorted run, and the order is a k-way merge of the
// runs through a heap of each workflow's next event, keyed on (due time,
// workflow).
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
	due := func(j, i int32) float64 { return wfs[j].arrival + wfs[j].offs[i]*compress }

	h := runHeap{next: make([]int32, len(wfs))}
	for j, w := range wfs {
		if len(w.offs) > 0 {
			h.push(head{due(int32(j), 0), int32(j)})
		}
	}
	order := make([]entry, 0, n)
	for len(order) < n {
		j := h.heads[0].wf
		i := h.next[j]
		order = append(order, entry{wfIdx: j, evIdx: i})
		if i++; int(i) < len(wfs[j].offs) {
			h.next[j] = i
			h.heads[0].t = due(j, i)
			h.down(0)
		} else {
			h.pop()
		}
	}
	return order
}

// head is the next unmerged event of one workflow and its due time.
type head struct {
	t  float64
	wf int32
}

// runHeap is mergeOrder's min-heap of workflow heads, ordered on (due
// time, workflow); next is each workflow's next unmerged event.
type runHeap struct {
	heads []head
	next  []int32
}

func (h *runHeap) less(a, b head) bool {
	return a.t < b.t || a.t == b.t && a.wf < b.wf
}

func (h *runHeap) push(x head) {
	h.heads = append(h.heads, x)
	for i := len(h.heads) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(h.heads[i], h.heads[p]) {
			break
		}
		h.heads[i], h.heads[p] = h.heads[p], h.heads[i]
		i = p
	}
}

func (h *runHeap) pop() {
	last := len(h.heads) - 1
	h.heads[0] = h.heads[last]
	h.heads = h.heads[:last]
	h.down(0)
}

// down restores the heap order below i after heads[i] grew.
func (h *runHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.heads) {
			return
		}
		if c+1 < len(h.heads) && h.less(h.heads[c+1], h.heads[c]) {
			c++
		}
		if !h.less(h.heads[c], h.heads[i]) {
			return
		}
		h.heads[i], h.heads[c] = h.heads[c], h.heads[i]
		i = c
	}
}

// assemble lays the rendered lines out in publish order, giving each its
// planned offset, and draws every fault in that order: a garbage line
// inserted before an event, or an event marked Drop. The fault rng is
// separate from the generator rngs so tweaking a fault knob never
// reshapes the workflows themselves — only which lines get mangled or
// dropped.
//
// Only the draws are sequential. The lines are then written on every core
// (runtime.GOMAXPROCS), each goroutine taking one contiguous range of the
// publish order; all have exited when it returns.
func (s *Stream) assemble(order []entry, wfs []workflow) {
	frng := rand.New(rand.NewSource(s.Scenario.Seed ^ 0x5eedfa07))
	f := &s.Scenario.Faults
	var garbage, drops []int32 // positions in order, ascending
	for i, en := range order {
		if f.MalformedRate > 0 && frng.Float64() < f.MalformedRate {
			garbage = append(garbage, int32(i))
		}
		if f.BrokerDropRate > 0 && frng.Float64() < f.BrokerDropRate {
			drops = append(drops, int32(i))
			if wf := wfs[en.wfIdx].lines[en.evIdx].WF; wf != "" {
				s.DroppedWFs[wf] = true
			}
		}
	}
	s.Lines = make([]Line, len(order)+len(garbage))
	s.Acct.InjectedMalformed = len(garbage)
	s.Acct.InjectedDrops = len(drops)
	s.Acct.Emitted = len(s.Lines)
	s.Acct.ToPublish = s.Acct.Emitted - s.Acct.InjectedDrops

	workers := runtime.GOMAXPROCS(0)
	per := (len(order) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(order); lo += per {
		hi := min(lo+per, len(order))
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.layOut(order, wfs, lo, hi, garbage, drops)
		}()
	}
	wg.Wait()
}

// layOut writes the lines of publish positions lo..hi-1, and the garbage
// lines before them, where they land in s.Lines. It copies every body out
// of the workers' blocks (or the shared garbage lines) into blocks of its
// own, in publish order, so that a consumer reading the stream front to
// back, as every run does, reads its bodies front to back too. The last
// block is sized to what is left, and each copy is capped at its own
// length, so appending to one line can never write into the next.
func (s *Stream) layOut(order []entry, wfs []workflow, lo, hi int, garbage, drops []int32) {
	g, _ := slices.BinarySearch(garbage, int32(lo))
	gEnd, _ := slices.BinarySearch(garbage, int32(hi))
	d, _ := slices.BinarySearch(drops, int32(lo))
	rest := 0
	for _, en := range order[lo:hi] {
		rest += len(wfs[en.wfIdx].lines[en.evIdx].Body)
	}
	for k := g; k < gEnd; k++ {
		rest += len(garbageLines[k%len(garbageLines)])
	}
	var block []byte
	carve := func(b []byte) []byte {
		if cap(block)-len(block) < len(b) {
			block = make([]byte, 0, min(max(arenaSize, len(b)), rest))
		}
		rest -= len(b)
		n := len(block)
		block = append(block, b...)
		return block[n:len(block):len(block)]
	}
	out := lo + g
	for i := lo; i < hi; i++ {
		at := s.Plan.TimeAt(i)
		if g < gEnd && int(garbage[g]) == i {
			s.Lines[out] = Line{
				At:        at,
				Key:       "stampede.injected.garbage",
				Body:      carve(garbageLines[g%len(garbageLines)]),
				Malformed: true,
			}
			g++
			out++
		}
		en := order[i]
		ln := &s.Lines[out]
		*ln = wfs[en.wfIdx].lines[en.evIdx]
		ln.At = at
		ln.Body = carve(ln.Body)
		if d < len(drops) && int(drops[d]) == i {
			ln.Drop = true
			d++
		}
		out++
	}
}
