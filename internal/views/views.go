// Package views maintains incremental materialized aggregates over the
// ingest stream: per-workflow state and job-state counts, per-host
// utilization, and p50/p95/p99 task latency (P² quantile estimators), all
// updated in the loader's apply path right after a batch commits instead
// of recomputed from a store scan per request. Serving a dashboard page
// or an SSE delta is then O(changed workflows), not O(rows × clients).
//
// Updates are batched (ObserveBatch runs once per committed loader batch,
// holding one stripe lock across runs of same-workflow events) and
// publication is coalesced: a flush writes every dirty workflow's delta
// once, with appendDelta, into one SSE frame appended to a frame log
// (sub.go) that every broadcast subscriber reads verbatim, so a flush costs
// one append and one wake-up broadcast however many subscribe; a workflow
// subscribed to on its own gets its slices of that frame in a log of its
// own. The publisher paces itself by what publishing and delivery cost
// (restAfter): the first workflow to go dirty after a rest is on the wire
// at once, and after a flush it rests max(restFloor, restPerCost·d), never
// longer than FlushEvery, d being the running mean of what a flush and its
// measured delivery took.
// What went dirty meanwhile rides the next flush, so staleness is bounded
// by one rest and publishing's share of a core by 1/(1+restPerCost) — at
// any load and any fan-out, with no knob. A subscriber more than a ring of
// frames behind re-syncs from the view snapshot — never from a store scan —
// because every delta carries full workflow state (latest wins), so a
// skipped frame only costs freshness, not correctness.
//
// The online anomaly detectors from internal/analysis run in the same
// apply-time path: invocation runtimes feed a per-transformation 3σ
// detector and anomalies are published as in-stream alert events.
package views

import (
	"encoding/json"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/wfclock"
)

// Workflow top-level states, mirroring the dashboard's scan rule: the
// highest-timestamp workflowstate row wins (ties broken by arrival order,
// matching the stable timestamp sort a scan performs).
const (
	StateUnknown = "UNKNOWN"
	StateRunning = "RUNNING"
	StateSuccess = "SUCCESS"
	StateFailure = "FAILURE"
)

const (
	wfUnknown = iota
	wfRunning
	wfSuccess
	wfFailure
)

var stateNames = [...]string{StateUnknown, StateRunning, StateSuccess, StateFailure}

// The job-state vocabulary is the archive's, indexed densely so per-workflow
// counts are a fixed array touched without allocation on the hot path.
const numJS = len(archive.JobStates)

var jsNames = archive.JobStates

var jsIndexByName = func() map[string]int {
	m := make(map[string]int, numJS)
	for i, n := range jsNames {
		m[n] = i
	}
	return m
}()

// jsFailure indexes the count the failures column reports.
var jsFailure = jsIndexByName[archive.JSFailure]

// WorkflowDelta is the full materialized state of one workflow — both the
// snapshot row and the streamed delta (full-state, latest-wins; a client
// that misses deltas loses freshness, never correctness).
type WorkflowDelta struct {
	UUID        string           `json:"uuid"`
	Label       string           `json:"label"`
	SubmitHost  string           `json:"submit_host"`
	State       string           `json:"state"`
	Planned     time.Time        `json:"planned"`
	WallSecs    float64          `json:"wall_seconds"`
	IsRoot      bool             `json:"is_root"`
	JobStates   map[string]int64 `json:"job_states,omitempty"`
	Invocations int64            `json:"invocations"`
	Failures    int64            `json:"failures"`
	P50         float64          `json:"p50_seconds"`
	P95         float64          `json:"p95_seconds"`
	P99         float64          `json:"p99_seconds"`
	Seq         uint64           `json:"seq"`
}

// Alert is an apply-time anomaly, published in-stream.
type Alert struct {
	UUID           string  `json:"uuid"`
	Transformation string  `json:"transformation"`
	Value          float64 `json:"value"`
	Expected       float64 `json:"expected"`
	Score          float64 `json:"score"`
	Detail         string  `json:"detail,omitempty"`
}

// HostUtilization is the materialized per-host aggregate.
type HostUtilization struct {
	Site      string  `json:"site"`
	Hostname  string  `json:"hostname"`
	IP        string  `json:"ip"`
	Instances int64   `json:"instances"`
	BusySecs  float64 `json:"busy_seconds"`
}

// Stats is a point-in-time summary for the status page.
type Stats struct {
	Workflows   int
	Hosts       int
	Subscribers int
	Updates     uint64
	Dropped     uint64
	Resyncs     uint64
}

// Options tunes a Views instance.
type Options struct {
	// Clock times the publisher's flushes and rests (nil = wall clock).
	Clock wfclock.Clock
	// FlushEvery is the longest the publisher rests between two flushes,
	// and so the bound on how stale the glass may be (0 = 200ms). It is a
	// ceiling, not a wait: see restAfter for what a rest usually is.
	FlushEvery time.Duration
}

// The publisher's pacing. After a flush that published something it rests;
// what goes dirty during the rest rides the next flush. What a flush costs
// is what the publisher spent on it plus what delivering it is estimated to
// cost the subscribers it reached, as a running mean over the last few
// (smoothCost), not the last one alone: on a busy host one flush in a
// hundred is descheduled or meets a collection and reads ten or twenty
// times its cost, and ten times *that* as a single rest was the whole of a
// saturated run's glass p99, a different number every run. The mean charges
// the same total rest for it, spread over the flushes that follow, so the
// share of a core is bounded as before and no one delta waits for a stall
// it did not cause. The constants are measured, not tuned per deployment
// (CHANGES.md):
//
//   - restFloor is a frame time: no screen shows two states 10 ms apart, so
//     flushing oftener only multiplies frames. At an eighth of capacity a
//     flush costs well under a millisecond and this is the term that holds,
//     glass p99 ≈ 12 ms.
//   - restPerCost makes a flush that cost d be followed by a rest of at
//     least 10·d, which caps publishing and delivery together at 1/11 of one
//     core however many workflows are dirty and however many subscribe: a
//     flush dear enough to matter stretches its own rest. Delivery is the
//     median of the last costSamples subscribers' wake-to-written times
//     (Sub.WriteTo) times the subscribers the flush reached, so a client
//     stalled on a full socket counts as one subscriber, not as a stall.
//     Measured at 0.2–1 µs a subscriber, 1,000 subscribers add 2–10 ms to a
//     rest, and 10,000 stretch it to 20–100 ms.
const (
	restFloor   = 10 * time.Millisecond
	restPerCost = 10
	// costSmoothing is the weight of the mean's past against one new flush.
	costSmoothing = 8
)

// smoothCost folds what the last flush took into the running mean of what a
// flush costs (mean 0: no flush has been timed yet).
func smoothCost(mean, cost time.Duration) time.Duration {
	if mean == 0 {
		return cost
	}
	return mean + (cost-mean)/costSmoothing
}

// restAfter is the pacing rule: how long the publisher rests after a flush
// whose publishing and delivery cost, given the ceiling (Options.FlushEvery).
func restAfter(cost, ceiling time.Duration) time.Duration {
	return min(max(restFloor, restPerCost*cost), ceiling)
}

var (
	mUpdates = telemetry.NewCounter("stampede_views_updates_total",
		"Materialized-view workflow updates applied (events observed post-commit).")
	mSubscribers = telemetry.NewGauge("stampede_views_subscribers",
		"Live SSE/delta subscribers across all Views instances.")
	mDroppedDeltas = telemetry.NewCounter("stampede_views_dropped_deltas_total",
		"Frames a subscriber fell too far behind to be sent (each gap is one resync).")
	mResyncs = telemetry.NewCounter("stampede_views_resyncs_total",
		"Slow-consumer resyncs served from the view snapshot.")
	mAnomalyAlerts = telemetry.NewCounter("stampede_views_anomaly_alerts_total",
		"In-stream 3-sigma anomaly alerts raised by the runtime detector.")
	mFlushSeconds = telemetry.NewHistogram("stampede_views_flush_seconds",
		"Latency from a workflow first going dirty to its delta being published.",
		telemetry.DurationBuckets)
	mFlushes = telemetry.NewCounter("stampede_views_flushes_total",
		"Publisher flushes that put at least one delta or alert on the wire.")
	// flushBusyNS is the time the publisher spent in those flushes; its rate
	// is the publisher's duty cycle, the quantity restAfter bounds.
	flushBusyNS atomic.Int64
)

func init() {
	telemetry.NewCounterFunc("stampede_views_flush_busy_seconds_total",
		"Time the publisher spent flushing (rate = its share of one core).",
		func() float64 { return float64(flushBusyNS.Load()) / 1e9 })
}

// hostKey matches the archive's host identity (site, hostname, ip) so a
// rebuild from the store produces the same host set.
type hostKey struct{ site, hostname, ip string }

type hostView struct {
	site, hostname, ip string
	mu                 sync.Mutex
	instances          int64
	busy               float64 // summed local_duration seconds
}

func (h *hostView) add(dBusy float64, dInst int64) {
	h.mu.Lock()
	h.instances += dInst
	h.busy += dBusy
	h.mu.Unlock()
}

// vinst is the per-job-instance scratch state a view needs to mirror the
// archive's derived columns (local_duration, host attribution) and its
// invocation identity (inv.id within the instance).
type vinst struct {
	execTS  time.Time
	dur     float64 // local duration attributed to host (last main.end; 0 before one)
	host    *hostView
	invSeen map[int64]struct{}
}

type vinstKey struct {
	wf  *wfView
	job string
	seq int64
}

type wfView struct {
	st         *vstripe // whose mu guards everything below uuid
	uuid       string
	label      string
	submitHost string
	planned    time.Time
	hasParent  bool

	state         uint8
	firstStart    time.Time // earliest WORKFLOW_STARTED
	lastStateTS   time.Time // max workflowstate timestamp
	js            [numJS]int64
	invs          int64
	q50, q95, q99 *analysis.P2Quantile

	seq     uint64 // bumped on every change; carried in deltas
	dirty   bool
	dirtyAt time.Time

	// row is the workflow's listing row as a listing last encoded it, at
	// seq rowSeq: encoded when a listing reads it, never at apply or flush,
	// and only again once seq has moved. nil until then, and after a
	// rebuild, which writes the view without touch.
	row    []byte
	rowSeq uint64
}

type vstripe struct {
	mu       sync.Mutex
	wfs      map[string]*wfView
	insts    map[vinstKey]*vinst
	lastUUID string
	lastWF   *wfView
	dirty    []*wfView
	alerts   []Alert
	// subs holds the frame log of every workflow (known or not) somebody
	// subscribed to on its own, while somebody is, so a flush hands a
	// workflow's frames to its own log only when it has a reader.
	subs map[string]*frameLog
}

// Views is the materialized-view layer. One instance serves one archive.
type Views struct {
	opts  Options
	det   *analysis.RuntimeDetector
	log   *frameLog // the broadcast stream
	clock wfclock.Clock
	// deliveries is what the subscribers' recent wake-ups cost them.
	deliveries deliveryCosts

	stripes [64]vstripe

	hostMu   sync.Mutex
	hosts    map[hostKey]*hostView
	hostList []*hostView

	// all holds every workflow view in creation order, appended under
	// listMu by wfFor and never reordered or shortened, so a prefix read
	// under listMu stays valid once it is released.
	listMu sync.Mutex
	all    []*wfView

	nsubs atomic.Int64 // every subscription

	flushMu sync.Mutex
	// ndirty counts the workflows gone dirty since the last flush and
	// deltaBytes (guarded by flushMu) is what one took in that flush's
	// frame: together they size the next frame in one allocation, however
	// the two flushes differ in size.
	ndirty     atomic.Int64
	deltaBytes int
	// wake is touch's 1-slot signal that a workflow went dirty; the publisher
	// listens only when it is not resting, otherwise the slot stays full.
	wake     chan struct{}
	stopCh   chan struct{}
	doneCh   chan struct{}
	stopOnce sync.Once
}

// New builds a Views and starts its coalescing flusher.
func New(opts Options) *Views {
	if opts.Clock == nil {
		opts.Clock = wfclock.Real
	}
	if opts.FlushEvery == 0 {
		opts.FlushEvery = 200 * time.Millisecond
	}
	v := &Views{
		opts:       opts,
		deltaBytes: 512,
		det:        analysis.NewRuntimeDetector(),
		log:        newFrameLog(),
		clock:      opts.Clock,
		hosts:      make(map[hostKey]*hostView),
		wake:       make(chan struct{}, 1),
		stopCh:     make(chan struct{}),
		doneCh:     make(chan struct{}),
	}
	for i := range v.stripes {
		v.stripes[i].wfs = make(map[string]*wfView)
		v.stripes[i].insts = make(map[vinstKey]*vinst)
		v.stripes[i].subs = make(map[string]*frameLog)
	}
	go v.run()
	return v
}

// Close stops the flusher and publishes any remaining dirty state.
func (v *Views) Close() {
	v.stopOnce.Do(func() {
		close(v.stopCh)
		<-v.doneCh
		v.FlushNow()
	})
}

// run is the publisher. Not resting, it listens for the first workflow to go
// dirty and publishes it at once; after a flush that published something it
// rests restAfter(what the flush and its delivery cost) and then takes
// whatever went dirty meanwhile — nothing, and it listens again, the ticker
// left at FlushEvery as the bound no delta should ever need. The rest is
// armed before the flush is counted, so whoever has seen the count move may
// rely on the next flush being exactly one rest away. Pacing trades
// freshness, never correctness — deltas carry full state and explicit
// FlushNow calls always publish.
func (v *Views) run() {
	defer close(v.doneCh)
	t := wfclock.NewTicker(v.clock, v.opts.FlushEvery)
	defer t.Stop()
	wake := v.wake // nil while resting
	var mean time.Duration
	for {
		select {
		case <-v.stopCh:
			return
		case <-wake:
		case <-t.C():
		}
		start := v.clock.Now()
		n, reached := v.flush()
		if n == 0 {
			wake = v.wake
			t.Reset(v.opts.FlushEvery)
			continue
		}
		cost := v.clock.Since(start)
		mean = smoothCost(mean, cost+time.Duration(reached)*v.deliveries.perSubscriber())
		t.Reset(restAfter(mean, v.opts.FlushEvery))
		wake = nil
		flushBusyNS.Add(int64(cost))
		mFlushes.Inc()
	}
}

// stripeFor returns the lock stripe for a workflow uuid, picked with the
// archive's router so every event of one workflow meets the same stripe.
func (v *Views) stripeFor(uuid string) *vstripe {
	return &v.stripes[archive.Route(uuid, len(v.stripes))]
}

// ObserveBatch folds one committed loader batch into the views. Called
// from the loader's apply path after ApplyBatch succeeds for these events
// and before they are recycled; events for the same workflow arrive here
// in apply order because loader shards route by workflow uuid.
func (v *Views) ObserveBatch(evs []*bp.Event) {
	var st *vstripe
	locked := ""
	for _, ev := range evs {
		uuid := ev.Get(schema.AttrXwfID)
		if uuid == "" {
			continue
		}
		t := schema.TypeOf(ev.Type)
		// A plan event naming a parent must ensure the parent's view
		// exists; that takes the parent's stripe lock, so do it while
		// holding none (never two stripe locks at once).
		if t == typePlan {
			if p := ev.Get(schema.AttrParentXwf); p != "" && p != uuid {
				if st != nil {
					st.mu.Unlock()
					st = nil
				}
				v.ensure(p, ev.TS)
			}
		}
		if st == nil || uuid != locked {
			// Same-uuid runs keep the stripe lock; a different uuid may
			// still land on the same stripe, but re-locking keeps the
			// invariant simple: at most one stripe lock held at a time.
			if st != nil {
				st.mu.Unlock()
			}
			st = v.stripeFor(uuid)
			st.mu.Lock()
			locked = uuid
		}
		v.observeLocked(st, uuid, &observers[t], ev)
	}
	if st != nil {
		st.mu.Unlock()
	}
}

// ensure creates a placeholder view for uuid if none exists (the parent
// of a planned sub-workflow, mirroring archive.ensureWF).
func (v *Views) ensure(uuid string, ts time.Time) {
	st := v.stripeFor(uuid)
	st.mu.Lock()
	v.wfFor(st, uuid, ts)
	st.mu.Unlock()
}

// wfFor returns (creating if needed) the view for uuid. A fresh view
// records ts as its planned time, mirroring archive.ensureWF writing the
// first referencing event's timestamp onto the placeholder row (a later
// plan event overwrites it). Caller holds st.mu.
func (v *Views) wfFor(st *vstripe, uuid string, ts time.Time) *wfView {
	if st.lastUUID == uuid && st.lastWF != nil {
		return st.lastWF
	}
	w := st.wfs[uuid]
	if w == nil {
		w = &wfView{st: st, uuid: uuid, planned: ts}
		w.q50, _ = analysis.NewP2Quantile(0.50)
		w.q95, _ = analysis.NewP2Quantile(0.95)
		w.q99, _ = analysis.NewP2Quantile(0.99)
		st.wfs[uuid] = w
		v.listMu.Lock()
		v.all = append(v.all, w)
		v.listMu.Unlock()
	}
	st.lastUUID, st.lastWF = uuid, w
	return w
}

func (v *Views) touch(st *vstripe, w *wfView) {
	w.seq++
	mUpdates.Inc()
	if !w.dirty {
		w.dirty = true
		w.dirtyAt = v.clock.Now()
		st.dirty = append(st.dirty, w)
		v.ndirty.Add(1)
		select {
		case v.wake <- struct{}{}:
		default:
		}
	}
}

// noteState applies a workflowstate transition under the scan-equivalent
// rule: the row with the max timestamp wins, ties going to the later
// arrival (a stable sort by timestamp keeps arrival order within ties).
func (w *wfView) noteState(state uint8, ts time.Time) {
	if w.lastStateTS.IsZero() || !ts.Before(w.lastStateTS) {
		w.state = state
		w.lastStateTS = ts
	}
	if state == wfRunning && (w.firstStart.IsZero() || ts.Before(w.firstStart)) {
		w.firstStart = ts
	}
}

func (v *Views) hostFor(site, hostname, ip string) *hostView {
	k := hostKey{site, hostname, ip}
	v.hostMu.Lock()
	h := v.hosts[k]
	if h == nil {
		h = &hostView{site: site, hostname: hostname, ip: ip}
		v.hosts[k] = h
		v.hostList = append(v.hostList, h)
	}
	v.hostMu.Unlock()
	return h
}

func (v *Views) instFor(st *vstripe, w *wfView, job string, seq int64) *vinst {
	k := vinstKey{wf: w, job: job, seq: seq}
	is := st.insts[k]
	if is == nil {
		is = &vinst{}
		st.insts[k] = is
	}
	return is
}

// observe applies an event's own effect to its workflow's view, which the
// caller holds the stripe lock of, and reports whether it changed the view.
type observe func(v *Views, st *vstripe, w *wfView, ev *bp.Event) bool

// effects is what each event type does to the views besides the jobstate row
// the archive's Lifecycle declares for it, which observers adds. A type
// listed with nil changes no view; a lifecycle event that only appends a
// jobstate row needs no entry here, its Lifecycle is its entry.
var effects = map[string]observe{
	schema.WfPlan:    observePlan,
	schema.XwfStart:  observeXwfStart,
	schema.XwfEnd:    observeXwfEnd,
	schema.MainStart: observeMainStart,
	schema.MainEnd:   observeMainEnd,
	schema.HostInfo:  (*Views).observeHost,
	schema.InvEnd:    (*Views).observeInvEnd,
	// Structural: no materialized effect.
	schema.StaticStart: nil, schema.StaticEnd: nil, schema.TaskInfo: nil,
	schema.TaskEdge: nil, schema.JobInfo: nil, schema.JobEdge: nil,
	schema.MapTaskJob: nil, schema.MapSubwfJob: nil, schema.ImageInfo: nil,
	schema.InvStart: nil,
}

// observer is an event type's whole effect on the views: its own, and the
// job-state count its Lifecycle adds, ok or fail being lc.OK's and lc.Fail's
// index in jsNames.
type observer struct {
	on       observe
	lc       archive.Lifecycle
	ok, fail int
}

// observers is the views' dispatch, indexed by type code; the zero entry
// (no effect) serves a type the model does not declare.
var observers = func() []observer {
	ons := schema.ByType(effects)
	obs := make([]observer, len(ons))
	for t, on := range ons {
		lc := archive.LifecycleOf(schema.Type(t))
		obs[t] = observer{on, lc, jsIndexByName[lc.OK], jsIndexByName[lc.Fail]}
	}
	return obs
}()

var typePlan = schema.TypeOf(schema.WfPlan)

// observeLocked applies one event, whose type's entry is o, to the views.
// Caller holds st.mu for the event's workflow stripe. Only events that
// change materialized aggregates create or touch a workflow's view.
func (v *Views) observeLocked(st *vstripe, uuid string, o *observer, ev *bp.Event) {
	if o.on == nil && o.lc.OK == "" {
		return
	}
	w := v.wfFor(st, uuid, ev.TS)
	if o.on != nil && !o.on(v, st, w, ev) {
		return
	}
	if o.lc.OK != "" {
		if o.lc.Failed(ev) {
			w.js[o.fail]++
		} else {
			w.js[o.ok]++
		}
	}
	v.touch(st, w)
}

func observePlan(_ *Views, _ *vstripe, w *wfView, ev *bp.Event) bool {
	w.label = ev.Get("dax.label")
	w.submitHost = ev.Get("submit.hostname")
	w.planned = ev.TS
	if ev.Get(schema.AttrParentXwf) != "" {
		// Mirrors applyPlan: any named parent (self included) sets
		// parent_wf_id, so the scan reports the workflow non-root.
		w.hasParent = true
	}
	return true
}

func observeXwfStart(_ *Views, _ *vstripe, w *wfView, ev *bp.Event) bool {
	w.noteState(wfRunning, ev.TS)
	return true
}

func observeXwfEnd(_ *Views, _ *vstripe, w *wfView, ev *bp.Event) bool {
	state := uint8(wfSuccess)
	if s, _ := ev.Int(schema.AttrStatus); s != 0 {
		state = wfFailure
	}
	w.noteState(state, ev.TS)
	return true
}

// inst returns the view state of ev's job instance.
func (v *Views) inst(st *vstripe, w *wfView, ev *bp.Event) *vinst {
	seq, _ := ev.Int(schema.AttrJobInstID)
	return v.instFor(st, w, ev.Get(schema.AttrJobID), seq)
}

func observeMainStart(v *Views, st *vstripe, w *wfView, ev *bp.Event) bool {
	v.inst(st, w, ev).execTS = ev.TS
	return true
}

func observeMainEnd(v *Views, st *vstripe, w *wfView, ev *bp.Event) bool {
	is := v.inst(st, w, ev)
	if !is.execTS.IsZero() {
		d := ev.TS.Sub(is.execTS).Seconds()
		if is.host != nil {
			// Re-emission replaces the attributed duration rather
			// than double-counting it, mirroring a row Update.
			is.host.add(d-is.dur, 0)
		}
		is.dur = d
	}
	return true
}

func (v *Views) observeHost(st *vstripe, w *wfView, ev *bp.Event) bool {
	h := v.hostFor(ev.Get(schema.AttrSite), ev.Get(schema.AttrHostname), ev.Get("ip"))
	is := v.inst(st, w, ev)
	if is.host != h {
		if is.host != nil {
			is.host.add(-is.dur, -1)
		}
		h.add(is.dur, 1)
		is.host = h
	}
	return true
}

func (v *Views) observeInvEnd(st *vstripe, w *wfView, ev *bp.Event) bool {
	is := v.inst(st, w, ev)
	invID, _ := ev.Int(schema.AttrInvID)
	if is.invSeen == nil {
		is.invSeen = make(map[int64]struct{}, 4)
	}
	if _, dup := is.invSeen[invID]; dup {
		// The archive skips the duplicate invocation; mirror that so
		// view counts equal a rebuild from the store.
		return false
	}
	is.invSeen[invID] = struct{}{}
	w.invs++
	d, _ := ev.Float(schema.AttrDur)
	w.q50.Observe(d)
	w.q95.Observe(d)
	w.q99.Observe(d)
	if tr := ev.Get(schema.AttrTransform); tr != "" {
		if an, bad := v.det.Observe(tr, d); bad {
			mAnomalyAlerts.Inc()
			st.alerts = append(st.alerts, Alert{
				UUID:           w.uuid,
				Transformation: an.Group,
				Value:          an.Value,
				Expected:       an.Expected,
				Score:          an.Score,
				Detail:         an.Detail,
			})
		}
	}
	return true
}

// wallSeconds is the span from the first start to the latest state change.
func (w *wfView) wallSeconds() float64 {
	if !w.firstStart.IsZero() && w.lastStateTS.After(w.firstStart) {
		return w.lastStateTS.Sub(w.firstStart).Seconds()
	}
	return 0
}

// quantiles reads the three latency estimates, zero before any invocation.
func (w *wfView) quantiles() (p50, p95, p99 float64) {
	if w.q50.N() == 0 {
		return 0, 0, 0
	}
	return w.q50.Value(), w.q95.Value(), w.q99.Value()
}

// delta materializes the full state of a workflow as a struct, for callers
// that want fields (Workflows). The wire never sees it: frames are written
// by appendDelta, which the tests hold to this function's JSON. Caller holds
// the stripe lock.
func (w *wfView) delta() WorkflowDelta {
	d := WorkflowDelta{
		UUID:        w.uuid,
		Label:       w.label,
		SubmitHost:  w.submitHost,
		State:       stateNames[w.state],
		Planned:     w.planned,
		WallSecs:    w.wallSeconds(),
		IsRoot:      !w.hasParent,
		Invocations: w.invs,
		Failures:    w.js[jsFailure],
		Seq:         w.seq,
	}
	for i, n := range w.js {
		if n != 0 {
			if d.JobStates == nil {
				d.JobStates = make(map[string]int64, 8)
			}
			d.JobStates[jsNames[i]] = n
		}
	}
	d.P50, d.P95, d.P99 = w.quantiles()
	return d
}

// appendFrame appends one SSE-framed event ("event: <name>\ndata:
// <body>\n\n") to a frame.
func appendFrame(b []byte, event string, body []byte) []byte {
	b = append(b, "event: "...)
	b = append(b, event...)
	b = append(b, "\ndata: "...)
	b = append(b, body...)
	b = append(b, "\n\n"...)
	return b
}

// FlushNow publishes every dirty workflow's delta and queued alerts to
// subscribers and returns how many that was.
func (v *Views) FlushNow() int {
	n, _ := v.flush()
	return n
}

// flush seals every dirty workflow's delta and queued alert into one frame,
// appends it to the broadcast log, and returns how many deltas and alerts
// it carried and how many subscribers it reached. A workflow subscribed to
// on its own gets, in its own log, the slices of that frame that are its
// delta and alerts: nothing is copied.
func (v *Views) flush() (n, reached int) {
	v.flushMu.Lock()
	defer v.flushMu.Unlock()
	var batch []byte
	if dirty := int(v.ndirty.Swap(0)); dirty > 0 {
		batch = make([]byte, 0, (dirty+dirty/8+1)*v.deltaBytes)
	}
	now := v.clock.Now()
	for i := range v.stripes {
		st := &v.stripes[i]
		st.mu.Lock()
		for _, w := range st.dirty {
			start := len(batch)
			batch = append(batch, "event: delta\ndata: "...)
			batch = appendDelta(batch, w)
			batch = append(batch, "\n\n"...)
			if l := st.subs[w.uuid]; l != nil {
				reached += l.append(batch[start:len(batch):len(batch)])
			}
			mFlushSeconds.Observe(now.Sub(w.dirtyAt).Seconds())
			w.dirty = false
		}
		n += len(st.dirty)
		st.dirty = st.dirty[:0]
		for _, a := range st.alerts {
			body, err := json.Marshal(a) // alerts are rare
			if err != nil {
				continue
			}
			n++
			start := len(batch)
			batch = appendFrame(batch, "alert", body)
			if l := st.subs[a.UUID]; l != nil {
				reached += l.append(batch[start:len(batch):len(batch)])
			}
		}
		st.alerts = st.alerts[:0]
		st.mu.Unlock()
	}
	if n > 0 {
		v.deltaBytes = len(batch)/n + 1
		reached += v.log.append(batch)
	}
	return n, reached
}

// PublishFrame appends one out-of-band SSE event to the broadcast stream,
// framed like a flush, so every broadcast subscriber writes it verbatim.
// The health engine uses this to put alert lifecycle transitions on the
// same stream clients already watch.
func (v *Views) PublishFrame(event string, body []byte) {
	v.log.append(appendFrame(nil, event, body))
}

// ordered returns every workflow view in view-creation order (under
// single-shard loading this equals the archive's primary-key scan order).
// The views are live: read one under its stripe's lock (w.st.mu).
// It is a capped prefix of the creation list, so nothing is copied and an
// append by the caller cannot reach the list.
func (v *Views) ordered() []*wfView {
	v.listMu.Lock()
	defer v.listMu.Unlock()
	return v.all[:len(v.all):len(v.all)]
}

// Workflows returns a point-in-time snapshot of every workflow view, in
// view-creation order.
func (v *Views) Workflows() []WorkflowDelta {
	all := v.ordered()
	out := make([]WorkflowDelta, len(all))
	for i, w := range all {
		w.st.mu.Lock()
		out[i] = w.delta()
		w.st.mu.Unlock()
	}
	return out
}

// WorkflowSummary is a workflow's row in the listing: what GET
// /api/workflows serialises and nothing that costs to derive (no job-state
// map, no quantile reads).
type WorkflowSummary struct {
	UUID       string
	Label      string
	SubmitHost string
	State      string
	Planned    time.Time
	WallSecs   float64
	IsRoot     bool
}

// Summaries returns the listing row of every workflow, in view-creation
// order.
func (v *Views) Summaries() []WorkflowSummary {
	all := v.ordered()
	out := make([]WorkflowSummary, len(all))
	for i, w := range all {
		w.st.mu.Lock()
		out[i] = WorkflowSummary{
			UUID:       w.uuid,
			Label:      w.label,
			SubmitHost: w.submitHost,
			State:      stateNames[w.state],
			Planned:    w.planned,
			WallSecs:   w.wallSeconds(),
			IsRoot:     !w.hasParent,
		}
		w.st.mu.Unlock()
	}
	return out
}

// AppendSnapshot appends the JSON a connecting or lagging stream client is
// made whole with, in the encoding of the deltas that follow it: for uuid ""
// the array of every workflow's state in view-creation order, otherwise
// that workflow's state, or null while it is unknown.
func (v *Views) AppendSnapshot(dst []byte, uuid string) []byte {
	if uuid != "" {
		st := v.stripeFor(uuid)
		st.mu.Lock()
		defer st.mu.Unlock()
		if w := st.wfs[uuid]; w != nil {
			return appendDelta(dst, w)
		}
		return append(dst, "null"...)
	}
	all := v.ordered()
	dst = slices.Grow(dst, 512*len(all)) // a delta runs to some 450 bytes
	dst = append(dst, '[')
	for i, w := range all {
		if i > 0 {
			dst = append(dst, ',')
		}
		w.st.mu.Lock()
		dst = appendDelta(dst, w)
		w.st.mu.Unlock()
	}
	return append(dst, ']')
}

// AppendListing appends what GET /api/workflows serves: every workflow's
// listing row in view-creation order, laid out as encoding/json's Encoder
// with SetIndent("", "  ") writes the dashboard's []WorkflowStatus,
// trailing newline included. A row is re-encoded only when its workflow
// has changed since the last listing; otherwise the listing copies it.
func (v *Views) AppendListing(dst []byte) []byte {
	all := v.ordered()
	if len(all) == 0 {
		return append(dst, "[]\n"...)
	}
	dst = append(dst, '[')
	for i, w := range all {
		if i > 0 {
			dst = append(dst, ',')
		}
		w.st.mu.Lock()
		if w.row == nil || w.rowSeq != w.seq {
			w.row, w.rowSeq = appendRow(w.row[:0], w), w.seq
		}
		dst = append(dst, w.row...)
		w.st.mu.Unlock()
	}
	return append(dst, "\n]\n"...)
}

// Hosts returns the per-host utilization aggregates in creation order.
func (v *Views) Hosts() []HostUtilization {
	v.hostMu.Lock()
	list := make([]*hostView, len(v.hostList))
	copy(list, v.hostList)
	v.hostMu.Unlock()
	out := make([]HostUtilization, 0, len(list))
	for _, h := range list {
		h.mu.Lock()
		out = append(out, HostUtilization{
			Site: h.site, Hostname: h.hostname, IP: h.ip,
			Instances: h.instances, BusySecs: h.busy,
		})
		h.mu.Unlock()
	}
	return out
}

// SubscriberCount reports live subscribers on this instance.
func (v *Views) SubscriberCount() int { return int(v.nsubs.Load()) }

// Stats summarizes the instance for the status page.
func (v *Views) Stats() Stats {
	v.hostMu.Lock()
	nh := len(v.hostList)
	v.hostMu.Unlock()
	return Stats{
		Workflows:   len(v.ordered()),
		Hosts:       nh,
		Subscribers: v.SubscriberCount(),
		Updates:     mUpdates.Value(),
		Dropped:     mDroppedDeltas.Value(),
		Resyncs:     mResyncs.Value(),
	}
}
