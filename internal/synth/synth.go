// Package synth generates synthetic workflow-engine traces: complete,
// schema-valid Stampede BP event streams for workflows of parameterized
// size, shape, failure rate and host behaviour.
//
// The paper's loader-scaling claims rest on production workflows
// (CyberShake, O(10^6) tasks) that are not available here; per the
// reproduction plan, this synthesizer is the substitute. It simulates a
// FIFO list-scheduler over a pool of hosts with bounded slots, so queue
// delays, host imbalance and retry behaviour emerge from the same
// generating process the real systems have, not from sampled constants.
package synth

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"repro/internal/bp"
	"repro/internal/schema"
	"repro/internal/uuid"
)

// JobType describes one class of jobs in the synthetic workflow.
type JobType struct {
	Name        string  // type_desc and transformation prefix
	MeanSeconds float64 // mean runtime
	StddevPct   float64 // runtime stddev as a fraction of the mean
	Weight      int     // relative share of jobs of this type
}

// Config parameterizes a synthetic trace.
type Config struct {
	Seed  int64
	Label string
	Start time.Time

	Jobs  int // number of executable jobs
	Width int // jobs per DAG level (levels = ceil(Jobs/Width)); 0 = no edges

	JobTypes []JobType // defaults to one "compute" type of 60s ± 20%

	TasksPerJob int // abstract tasks clustered per job (>=1); 1 = unclustered

	Hosts        int // execution hosts; default 4
	SlotsPerHost int // concurrent jobs per host; default 2

	QueueDelayMean float64 // extra per-job scheduling latency, seconds

	FailureRate float64 // probability an instance fails with exit code 1
	MaxRetries  int     // retries per job before giving up

	// HostSlowdown maps host index -> runtime multiplier, for injecting
	// the stragglers the anomaly-detection experiment must find.
	HostSlowdown map[int]float64

	// SubWorkflows splits jobs into this many sub-workflows under a root
	// workflow, as the DART meta-workflow does. 0 or 1 = single flat
	// workflow.
	SubWorkflows int

	// Stages declares an explicit stage DAG instead of the layered Width
	// topology: each stage runs Jobs jobs of the given runtime class, and
	// a stage's jobs become ready only when the parent-stage jobs they
	// have edges to have finished — the generated schedule is causally
	// valid by construction, not just by slot contention. When set, Jobs,
	// Width and JobTypes are ignored. Callers must check ValidateStages
	// first: Generate assumes an acyclic, resolvable stage graph.
	Stages []StageSpec
}

// StageSpec is one stage of an explicit workflow topology (the motel-synth
// style declarative shape: a named operation class with duration jitter
// and fan-out edges to downstream stages).
type StageSpec struct {
	Name        string   // stage name; job type and transformation prefix
	Jobs        int      // jobs in this stage (>=1)
	MeanSeconds float64  // mean runtime of a stage job
	StddevPct   float64  // runtime stddev as a fraction of the mean
	After       []string // names of parent stages this one depends on
}

// ValidateStages rejects stage graphs Generate cannot schedule: empty or
// duplicate names, non-positive job counts, negative or non-finite
// runtimes, references to unknown stages, and dependency cycles.
func ValidateStages(stages []StageSpec) error {
	if len(stages) == 0 {
		return nil
	}
	idx := make(map[string]int, len(stages))
	for i, s := range stages {
		if s.Name == "" {
			return fmt.Errorf("synth: stage %d has no name", i)
		}
		if _, dup := idx[s.Name]; dup {
			return fmt.Errorf("synth: duplicate stage name %q", s.Name)
		}
		if s.Jobs < 1 {
			return fmt.Errorf("synth: stage %q has %d jobs; need >= 1", s.Name, s.Jobs)
		}
		if math.IsNaN(s.MeanSeconds) || math.IsInf(s.MeanSeconds, 0) || s.MeanSeconds < 0 {
			return fmt.Errorf("synth: stage %q mean_seconds %v is not a finite non-negative number", s.Name, s.MeanSeconds)
		}
		if math.IsNaN(s.StddevPct) || math.IsInf(s.StddevPct, 0) || s.StddevPct < 0 {
			return fmt.Errorf("synth: stage %q stddev_pct %v is not a finite non-negative number", s.Name, s.StddevPct)
		}
		idx[s.Name] = i
	}
	for _, s := range stages {
		for _, dep := range s.After {
			if _, ok := idx[dep]; !ok {
				return fmt.Errorf("synth: stage %q depends on unknown stage %q", s.Name, dep)
			}
		}
	}
	if _, ok := topoStages(stages); !ok {
		return fmt.Errorf("synth: stage graph has a dependency cycle")
	}
	return nil
}

// topoStages returns the stage indices in a dependency-respecting order
// (Kahn's algorithm, declaration order among ready stages so the result
// is deterministic). ok is false when the graph has a cycle.
func topoStages(stages []StageSpec) (order []int, ok bool) {
	idx := make(map[string]int, len(stages))
	for i, s := range stages {
		idx[s.Name] = i
	}
	indeg := make([]int, len(stages))
	children := make([][]int, len(stages)) // parent index -> dependent stage indices
	for i, s := range stages {
		for _, dep := range s.After {
			if j, known := idx[dep]; known {
				indeg[i]++
				children[j] = append(children[j], i)
			}
		}
	}
	ready := make([]int, 0, len(stages))
	for i := range stages {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		order = append(order, i)
		for _, k := range children[i] {
			if indeg[k]--; indeg[k] == 0 {
				ready = append(ready, k)
			}
		}
	}
	return order, len(order) == len(stages)
}

func (c *Config) fill() {
	if c.Start.IsZero() {
		c.Start = time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC)
	}
	if c.Label == "" {
		c.Label = "synthetic"
	}
	if c.Jobs == 0 {
		c.Jobs = 10
	}
	if len(c.JobTypes) == 0 {
		c.JobTypes = []JobType{{Name: "compute", MeanSeconds: 60, StddevPct: 0.2, Weight: 1}}
	}
	if c.TasksPerJob < 1 {
		c.TasksPerJob = 1
	}
	if c.Hosts == 0 {
		c.Hosts = 4
	}
	if c.SlotsPerHost == 0 {
		c.SlotsPerHost = 2
	}
}

// Trace is a generated event stream plus the identifiers experiments need
// to locate things in the archive afterwards.
type Trace struct {
	Events    []*bp.Event
	RootUUID  string
	SubUUIDs  []string
	Hostnames []string
	// FailedJobs counts jobs whose final instance failed.
	FailedJobs int
	// TotalRetries counts extra instances beyond the first per job.
	TotalRetries int
	// MakespanSeconds is the simulated wall time of the root workflow.
	MakespanSeconds float64
}

// WriteTo renders the trace as BP lines.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bp.NewWriter(w)
	for _, ev := range t.Events {
		if err := bw.Write(ev); err != nil {
			return 0, err
		}
	}
	return int64(bw.Count()), bw.Flush()
}

// Generate builds the trace. The same Config (including Seed) always
// produces the identical event stream.
func Generate(cfg Config) *Trace {
	return new(slab).generate(cfg)
}

// slab holds what generating a trace would otherwise allocate per event or
// per trace: the events, their attribute pairs, the event list and the
// rng. Generate uses a fresh slab for each trace. A BuildStream worker
// keeps one and generates every workflow it claims into it, so a trace it
// returns is valid only until its next generate; by then the worker has
// rendered the trace's events, and they are garbage.
type slab struct {
	rng    *rand.Rand
	events []*bp.Event  // the trace's event list, reused
	evs    [][]bp.Event // chunks of eventChunk events
	nev    int          // events handed out of evs
	pairs  [][]bp.Pair  // chunks of pairChunk attribute pairs
	npc    int          // chunks of pairs in use
	free   []bp.Pair    // the unused rest of the chunk in use
	buf    []byte       // scratch for building ids
}

const (
	eventChunk = 256
	pairChunk  = 2048
	// attrWindow is the room an event's attributes get in a pair chunk,
	// more than any generated event carries. One that outgrew it would
	// still be correct: append moves it out of the chunk.
	attrWindow = 16
)

// generate builds the trace for cfg into the slab, reusing whatever the
// slab's previous trace held.
func (s *slab) generate(cfg Config) *Trace {
	cfg.fill()
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		s.rng.Seed(cfg.Seed) // the same state rand.NewSource(cfg.Seed) starts in
	}
	s.nev, s.npc, s.free = 0, 0, nil
	tr := &Trace{Events: s.events[:0]}
	g := &gen{cfg: &cfg, rng: s.rng, tr: tr, slab: s}

	hostNames := make([]string, cfg.Hosts)
	for i := range hostNames {
		hostNames[i] = "worker" + strconv.Itoa(i+1)
	}
	tr.Hostnames = hostNames
	tr.RootUUID = g.uuidFor("root", -1)

	if nSub := cfg.SubWorkflows; nSub <= 1 {
		g.emitWorkflow(tr.RootUUID, tr.RootUUID, "", cfg.Jobs, 0, newSlots(hostNames, cfg.SlotsPerHost))
	} else {
		// Meta-workflow: root has one submission job per sub-workflow; each
		// sub-workflow carries its share of the exec jobs.
		per := cfg.Jobs / nSub
		extra := cfg.Jobs % nSub
		subJobs := make([]int, nSub)
		for i := range subJobs {
			subJobs[i] = per
			if i < extra {
				subJobs[i]++
			}
		}
		g.emitMetaRoot(tr.RootUUID, subJobs, cfg.Start, hostNames)
	}
	sortEvents(tr.Events)
	// The simulated wall time runs to the latest event, now the last.
	tr.MakespanSeconds = max(0, tr.Events[len(tr.Events)-1].TS.Sub(cfg.Start).Seconds())
	s.events = tr.Events
	return tr
}

// event starts an event with no attributes, its pairs in the slab; finish
// must complete it before the next one starts.
func (s *slab) event(typ string, ts time.Time) *bp.Event {
	if s.nev == len(s.evs)*eventChunk {
		s.evs = append(s.evs, make([]bp.Event, eventChunk))
	}
	ev := &s.evs[s.nev/eventChunk][s.nev%eventChunk]
	s.nev++
	if len(s.free) < attrWindow {
		if s.npc == len(s.pairs) {
			s.pairs = append(s.pairs, make([]bp.Pair, pairChunk))
		}
		s.free = s.pairs[s.npc]
		s.npc++
	}
	*ev = bp.Event{TS: ts, Type: typ, Attrs: s.free[:0:attrWindow]}
	return ev
}

// finish caps ev's attributes at their length, so that setting one more
// on a generated event moves its pairs rather than writing into the next
// event's, and hands the rest of the window to the next event.
func (s *slab) finish(ev *bp.Event) {
	n := len(ev.Attrs)
	ev.Attrs = ev.Attrs[:n:n]
	s.free = s.free[min(n, attrWindow):]
}

func sortEvents(evs []*bp.Event) {
	slices.SortStableFunc(evs, func(a, b *bp.Event) int { return a.TS.Compare(b.TS) })
}

// gen carries generation state across one trace.
type gen struct {
	cfg  *Config
	rng  *rand.Rand
	tr   *Trace
	slab *slab
}

// emit completes ev as an event of workflow wf at the given level and
// appends it to the trace. Every emitter sets its own attributes, never
// level or xwf.id, in key order, so each of its Sets appends. emit keeps
// the attributes sorted as bp.Attrs requires: level goes in before the
// keys that sort after it, xwf.id, the greatest key, at the end.
func (g *gen) emit(ev *bp.Event, wf, level string) {
	a := ev.Attrs
	i := len(a)
	for i > 0 && a[i-1].Key > schema.AttrLevel {
		i--
	}
	a = append(a, bp.Pair{})
	copy(a[i+1:], a[i:])
	a[i] = bp.Pair{Key: schema.AttrLevel, Val: level}
	ev.Attrs = append(a, bp.Pair{Key: schema.AttrXwfID, Val: wf})
	g.slab.finish(ev)
	g.tr.Events = append(g.tr.Events, ev)
}

// uuidFor derives a workflow's uuid from the label and seed: the root's when
// sub is negative, else sub-workflow sub's.
func (g *gen) uuidFor(kind string, sub int) string {
	b := append(g.slab.buf[:0], g.cfg.Label...)
	b = append(b, '-')
	b = strconv.AppendInt(b, g.cfg.Seed, 10)
	b = append(b, '-')
	b = append(b, kind...)
	if sub >= 0 {
		b = strconv.AppendInt(b, int64(sub), 10)
	}
	g.slab.buf = b
	return uuid.NewV5(uuid.NamespaceStampede, string(b)).String()
}

// id returns prefix, n zero-padded to width digits, then suffix; a
// negative suffix is left out. It is fmt's "%s%0*d" and "_%d", for the
// non-negative n the generator numbers jobs and tasks with.
func (g *gen) id(prefix string, n, width, suffix int) string {
	b := append(g.slab.buf[:0], prefix...)
	var d [20]byte
	digits := strconv.AppendInt(d[:0], int64(n), 10)
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	b = append(b, digits...)
	if suffix >= 0 {
		b = append(b, '_')
		b = strconv.AppendInt(b, int64(suffix), 10)
	}
	g.slab.buf = b
	return string(b)
}

func (g *gen) pickType(i int) JobType {
	total := 0
	for _, jt := range g.cfg.JobTypes {
		total += jt.Weight
	}
	k := i % total
	for _, jt := range g.cfg.JobTypes {
		if k < jt.Weight {
			return jt
		}
		k -= jt.Weight
	}
	return g.cfg.JobTypes[0]
}

func (g *gen) runtime(jt JobType, host int) float64 {
	d := jt.MeanSeconds * (1 + jt.StddevPct*g.rng.NormFloat64())
	if d < 0.1 {
		d = 0.1
	}
	if m, ok := g.cfg.HostSlowdown[host]; ok {
		d *= m
	}
	return d
}

// slotState tracks when each host slot frees up (seconds from Start).
type slotState struct {
	free  [][]float64 // per host, per slot
	hosts []string
}

func newSlots(hosts []string, perHost int) *slotState {
	s := &slotState{hosts: hosts}
	s.free = make([][]float64, len(hosts))
	for i := range s.free {
		s.free[i] = make([]float64, perHost)
	}
	return s
}

// acquire finds the earliest-available slot at or after ready and returns
// the host index, slot index and start time. The caller books the slot
// with book once it knows the placement-dependent duration.
func (s *slotState) acquire(ready float64) (host, slot int, start float64) {
	best := s.free[0][0]
	for h := range s.free {
		for sl := range s.free[h] {
			if s.free[h][sl] < best {
				best, host, slot = s.free[h][sl], h, sl
			}
		}
	}
	start = best
	if ready > start {
		start = ready
	}
	return host, slot, start
}

// book marks the slot busy until end.
func (s *slotState) book(host, slot int, end float64) { s.free[host][slot] = end }

// emitWorkflow generates one complete workflow of n exec jobs. startSec
// is the workflow's start offset in seconds from cfg.Start; slots is the
// (possibly shared) host pool, whose free times are also global seconds,
// so concurrent sub-workflows contend for the same hosts.
// It returns the workflow's end offset in global seconds.
func (g *gen) emitWorkflow(wfUUID, rootUUID, parentUUID string, n int, startSec float64, slots *slotState) float64 {
	cfg := g.cfg
	hosts := slots.hosts
	at := func(sec float64) time.Time {
		return cfg.Start.Add(time.Duration(sec * float64(time.Second)))
	}
	base := func(typ string, sec float64) *bp.Event { return g.slab.event(typ, at(startSec+sec)) }
	put := func(ev *bp.Event) { g.emit(ev, wfUUID, bp.LevelInfo) }

	plan := base(schema.WfPlan, 0).Set("dax.label", cfg.Label)
	if parentUUID != "" {
		plan.Set(schema.AttrParentXwf, parentUUID)
	}
	put(plan.Set(schema.AttrRootXwf, rootUUID).Set("submit.hostname", "submit-host"))
	put(base(schema.StaticStart, 0))

	type jobSpec struct {
		id      string
		jt      JobType
		tasks   []string
		parents []int // direct parent job indices (stage topology only)
	}
	// emitStruct writes the static description (task.info, job.info and the
	// task→job maps) for job i of type jt and returns its spec.
	emitStruct := func(i int, jt JobType) jobSpec {
		js := jobSpec{id: g.id(jt.Name+"_j", i, 4, -1), jt: jt, tasks: make([]string, cfg.TasksPerJob)}
		for t := range js.tasks {
			js.tasks[t] = g.id("t_"+jt.Name+"_", i, 4, t)
			put(base(schema.TaskInfo, 0).
				Set(schema.AttrTaskID, js.tasks[t]).
				Set(schema.AttrTransform, jt.Name).
				Set("type_desc", jt.Name))
		}
		put(base(schema.JobInfo, 0).
			SetInt("clustered", boolInt(cfg.TasksPerJob > 1)).
			Set(schema.AttrExecutable, "/opt/"+jt.Name).
			Set(schema.AttrJobID, js.id).
			SetInt("max_retries", int64(cfg.MaxRetries)).
			SetInt("task_count", int64(cfg.TasksPerJob)).
			Set("type_desc", jt.Name))
		for _, taskID := range js.tasks {
			put(base(schema.MapTaskJob, 0).Set(schema.AttrJobID, js.id).Set(schema.AttrTaskID, taskID))
		}
		return js
	}
	// emitEdge writes the job and task edges from parent to child.
	emitEdge := func(parent, child *jobSpec) {
		put(base(schema.JobEdge, 0).
			Set("child.job.id", child.id).
			Set("parent.job.id", parent.id))
		put(base(schema.TaskEdge, 0).
			Set("child.task.id", child.tasks[0]).
			Set("parent.task.id", parent.tasks[0]))
	}
	var jobs []jobSpec
	if len(cfg.Stages) > 0 {
		// Explicit stage DAG: jobs are built in topological stage order and
		// each child records its parent jobs, so the execution loop below
		// can hold it back until they finish.
		order, _ := topoStages(cfg.Stages)
		stageJobs := make([][]int, len(cfg.Stages))
		for _, si := range order {
			st := cfg.Stages[si]
			jt := JobType{Name: st.Name, MeanSeconds: st.MeanSeconds, StddevPct: st.StddevPct, Weight: 1}
			for j := 0; j < st.Jobs; j++ {
				i := len(jobs)
				js := emitStruct(i, jt)
				for _, dep := range st.After {
					for pi, ps := range cfg.Stages {
						if ps.Name != dep {
							continue
						}
						parents := stageJobs[pi]
						if len(parents) == 0 {
							break
						}
						p := parents[j%len(parents)]
						js.parents = append(js.parents, p)
						emitEdge(&jobs[p], &js)
						break
					}
				}
				stageJobs[si] = append(stageJobs[si], i)
				jobs = append(jobs, js)
			}
		}
	} else {
		jobs = make([]jobSpec, n)
		for i := 0; i < n; i++ {
			jobs[i] = emitStruct(i, g.pickType(i))
		}
		// DAG edges: layered by Width.
		if cfg.Width > 0 {
			for i := cfg.Width; i < n; i++ {
				emitEdge(&jobs[i-cfg.Width], &jobs[i])
			}
		}
	}
	put(base(schema.StaticEnd, 0))
	put(base(schema.XwfStart, 0.5).SetInt("restart_count", 0))

	// Execution events are timestamped in global seconds because the slot
	// pool (possibly shared with sibling sub-workflows) is global.
	gbase := func(typ string, gsec float64) *bp.Event { return g.slab.event(typ, at(gsec)) }
	wfEnd := startSec + 0.5
	anyFailed := false
	jobEnds := make([]float64, len(jobs))
	for jidx, js := range jobs {
		// ready time: with an explicit stage DAG a job waits for its parent
		// jobs to finish (causally valid schedules by construction); on the
		// layered Width path parents are approximated via slot contention,
		// which dominates.
		ready := startSec + 0.5
		for _, p := range js.parents {
			if jobEnds[p] > ready {
				ready = jobEnds[p]
			}
		}
		done := false
		var seq int64
		for attempt := 0; attempt <= cfg.MaxRetries && !done; attempt++ {
			seq++
			fails := g.rng.Float64() < cfg.FailureRate
			queueDelay := cfg.QueueDelayMean * (0.5 + g.rng.Float64())
			host, slot, execStart := slots.acquire(ready + queueDelay)
			dur := g.runtime(js.jt, host) // runtime depends on placement
			endT := execStart + dur
			slots.book(host, slot, endT)

			// ji starts an event of this job instance, up to its job.id and
			// job_inst.id; the keys sorting before them are the caller's.
			ji := func(ev *bp.Event) *bp.Event {
				return ev.Set(schema.AttrJobID, js.id).SetInt(schema.AttrJobInstID, seq)
			}
			put(ji(gbase(schema.SubmitStart, ready)))
			put(ji(gbase(schema.SubmitEnd, ready+0.01)).SetInt(schema.AttrStatus, 0))
			put(ji(gbase(schema.MainStart, execStart)))
			put(ji(gbase(schema.HostInfo, execStart).
				Set(schema.AttrHostname, hosts[host]).
				Set("ip", "10.0.0."+strconv.Itoa(host+1))).
				Set(schema.AttrSite, "cloud"))
			exit := int64(0)
			if fails {
				exit = 1
			}
			for ti, taskID := range js.tasks {
				share := dur / float64(len(js.tasks))
				invStart := execStart + float64(ti)*share
				put(ji(gbase(schema.InvStart, invStart).SetInt(schema.AttrInvID, int64(ti+1))))
				put(ji(gbase(schema.InvEnd, invStart+share).
					SetFloat(schema.AttrDur, round2(share)).
					SetInt(schema.AttrExitcode, exit).
					Set(schema.AttrHostname, hosts[host]).
					SetInt(schema.AttrInvID, int64(ti+1))).
					SetFloat(schema.AttrRemoteCPU, round2(share*0.97)).
					Set(schema.AttrSite, "cloud").
					Set(schema.AttrStartTime, at(invStart).Format(bp.TimeFormat)).
					Set(schema.AttrTaskID, taskID).
					Set(schema.AttrTransform, js.jt.Name))
			}
			if fails {
				// The paper's monitord announces each failed invocation with
				// a dedicated error event before the terminal main.end; the
				// archive materialises it as a MAIN_ERROR jobstate.
				g.emit(ji(gbase(schema.MainError, endT).SetInt(schema.AttrExitcode, exit)).
					SetInt(schema.AttrStatus, -1).
					Set(schema.AttrStderrText, "synthetic failure injected"), wfUUID, bp.LevelError)
			}
			mainEnd := ji(gbase(schema.MainEnd, endT).SetInt(schema.AttrExitcode, exit)).
				Set(schema.AttrSite, "cloud").
				SetInt(schema.AttrStatus, int64(exitStatus(exit)))
			if exit != 0 {
				mainEnd.Set(schema.AttrStderrText, "synthetic failure injected")
			}
			put(mainEnd)
			jobEnds[jidx] = endT
			if endT > wfEnd {
				wfEnd = endT
			}
			if fails {
				if attempt == cfg.MaxRetries {
					anyFailed = true
					g.tr.FailedJobs++
				} else {
					g.tr.TotalRetries++
					ready = endT
				}
			} else {
				done = true
			}
		}
	}
	status := int64(0)
	if anyFailed {
		status = -1
	}
	put(gbase(schema.XwfEnd, wfEnd+0.5).SetInt("restart_count", 0).SetInt(schema.AttrStatus, status))
	return wfEnd + 0.5
}

// emitMetaRoot generates a root workflow whose jobs each spawn one
// sub-workflow, then generates the sub-workflows themselves. Hosts are
// shared across sub-workflows through one slot pool, matching how the
// DART bundles competed for the TrianaCloud nodes.
func (g *gen) emitMetaRoot(rootUUID string, subJobs []int, start time.Time, hosts []string) {
	cfg := g.cfg
	at := func(sec float64) time.Time { return start.Add(time.Duration(sec * float64(time.Second))) }
	base := func(typ string, sec float64) *bp.Event { return g.slab.event(typ, at(sec)) }
	put := func(ev *bp.Event) { g.emit(ev, rootUUID, bp.LevelInfo) }
	slots := newSlots(hosts, cfg.SlotsPerHost)
	put(base(schema.WfPlan, 0).
		Set("dax.label", cfg.Label+"-meta").
		Set(schema.AttrRootXwf, rootUUID).
		Set("submit.hostname", "desktop"))
	put(base(schema.StaticStart, 0))
	subUUIDs := make([]string, len(subJobs))
	jobIDs := make([]string, len(subJobs))
	for i := range subJobs {
		jobIDs[i] = g.id("subwf_j", i, 3, -1)
		subUUIDs[i] = g.uuidFor("sub", i)
		put(base(schema.JobInfo, 0).
			SetInt("clustered", 0).
			Set(schema.AttrExecutable, "triana-bundle").
			Set(schema.AttrJobID, jobIDs[i]).
			SetInt("max_retries", 0).
			SetInt("task_count", 0).
			Set("type_desc", "sub-workflow"))
	}
	put(base(schema.StaticEnd, 0))
	put(base(schema.XwfStart, 0.2).SetInt("restart_count", 0))
	g.tr.SubUUIDs = subUUIDs

	wfEnd := 0.2
	for i, n := range subJobs {
		ji := func(ev *bp.Event) *bp.Event {
			return ev.Set(schema.AttrJobID, jobIDs[i]).SetInt(schema.AttrJobInstID, 1)
		}
		subStart := 0.3 + 0.05*float64(i) // staggered HTTP POSTs
		put(ji(base(schema.SubmitStart, subStart)))
		put(ji(base(schema.SubmitEnd, subStart+0.02)).SetInt(schema.AttrStatus, 0))
		put(ji(base(schema.MapSubwfJob, subStart+0.02)).Set(schema.AttrSubwfID, subUUIDs[i]))
		put(ji(base(schema.MainStart, subStart+0.05)))

		subEnd := g.emitWorkflow(subUUIDs[i], rootUUID, rootUUID, n, subStart+0.1, slots)

		put(ji(base(schema.MainEnd, subEnd+0.05).SetInt(schema.AttrExitcode, 0)).
			Set(schema.AttrSite, "cloud").
			SetInt(schema.AttrStatus, 0))
		if subEnd+0.05 > wfEnd {
			wfEnd = subEnd + 0.05
		}
	}
	put(base(schema.XwfEnd, wfEnd+0.2).SetInt("restart_count", 0).SetInt(schema.AttrStatus, 0))
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func exitStatus(exit int64) int {
	if exit == 0 {
		return 0
	}
	return -1
}

func round2(f float64) float64 {
	return float64(int64(f*100+0.5)) / 100
}
