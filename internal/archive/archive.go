package archive

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bp"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// Archive telemetry.
var (
	mApplied = telemetry.NewCounter("stampede_archive_events_applied_total",
		"Events folded into archive tables.")
	mRows = telemetry.NewGaugeVec("stampede_archive_rows",
		"Rows per archive table (sampled at scrape time).", "table")
	mFreshness = telemetry.NewGaugeVec("stampede_archive_freshness_seconds",
		"Now minus the newest event timestamp applied in the partition (computed at scrape time; "+
			"negative under scaled virtual engine clocks, 0 before the first apply).", "partition")
	mDuplicates = telemetry.NewCounterVec("stampede_archive_duplicates_total",
		"Description events skipped because the row they describe exists (workflow restarts re-emit them), by table.", "table")
)

// routeSlots is the width of the space Route folds a workflow uuid into
// before taking it modulo the partition count. It is an on-disk contract:
// rows never migrate, and the partition a workflow's rows were written to
// must be the one its later events (and Writer.Update) route to. It is also
// why a store has at most routeSlots partitions (relstore refuses to create
// more): a partition index above it could never come out of Route.
const routeSlots = 64

// Route maps a workflow uuid onto one of n owners: FNV-1a of the uuid,
// folded into 64 slots, modulo n. It is the one router between a BP line
// and a row: the archive keeps a workflow's identity caches and writes its
// rows in partition Route(uuid, NumPartitions()), the loader hands that
// partition's events to one apply shard, and the views pick their lock
// stripe with Route(uuid, 64).
func Route(uuid string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(uuid); i++ {
		h ^= uint32(uuid[i])
		h *= 16777619
	}
	return int(h%routeSlots) % n
}

// partState is everything the archive keeps per store partition: the
// partition's writer and the identities of the rows of the workflows that
// route to it (jobs, tasks, edges, job instances and their sequence
// counters, invocations), under one mutex. The store keeps no keys: these
// maps are what decides whether an event describes a new row or one that
// exists. The loader enters a partition from one apply shard only, so
// under it the mutex is never contended; it is what keeps Apply and
// ApplyBatch safe for callers that make no such promise.
type partState struct {
	mu      sync.Mutex
	w       relstore.Writer
	jobIDs  map[jobKey]int64       // (wf row, exec_job_id) -> job row id
	taskIDs map[jobKey]int64       // (wf row, abs_task_id) -> task row id
	insts   map[instKey]*instState // (job row, job_submit_seq) -> instance state
	edges   map[edgeKey]struct{}   // every task edge and job edge
	invs    map[instKey]struct{}   // (job instance row, task_submit_seq)

	// Last workflow resolved in this partition. Events arrive in
	// per-workflow runs, so this single-entry memo turns the per-event uuid
	// -> row resolution (an RLock plus a 36-byte string hash) into one string
	// compare. Guarded by mu like everything else here; never invalidated,
	// because a workflow's row id is immutable once assigned.
	lastUUID string
	lastWF   int64

	// newest is the partition's freshness watermark: the newest event
	// timestamp applied here, Unix nanoseconds, 0 before the first. Only
	// this partition's apply path writes it, under mu, so raising it is a
	// plain compare; the atomic is for readers that hold no lock.
	newest atomic.Int64
}

// instState is the per-job-instance hot-path state, held in one struct so
// the lifecycle handlers resolve everything about an instance with a
// single map lookup: the row id, the jobstate and invocation sequence
// counters, and the latest EXECUTE timestamp — kept so main.end can compute
// local_duration without selecting the instance's whole jobstate history
// per terminating job.
type instState struct {
	id       int64
	stateSeq int64
	invSeq   int64
	execTS   time.Time // zero = no EXECUTE seen
}

// Archive folds Stampede events into the relational store, and it alone
// decides the identity of every row it writes: maps keyed by the model's
// identities (workflow uuid, host triple, and per partition jobs, tasks,
// edges, instances and invocations; see identities) say whether an event
// describes a new row or one that exists, at the cost of one map lookup.
// The store below checks no keys and no references; CheckIntegrity
// checks a whole store for both.
//
// Concurrency contract: Apply and ApplyBatch may be called from many
// goroutines, provided all events of one workflow (one xwf.id) are applied
// from a single goroutine at a time — exactly what the sharded loader
// guarantees by routing events to shards by xwf.id. Everything scoped to a
// workflow lives in the partState of partition Route(uuid, N): all events of
// one workflow take that one mutex and commit through that one partition's
// writer (its own writer mutex, epoch and WAL segment), so distinct
// workflows on distinct partitions never contend. Cross-workflow caches
// (workflow uuid map, host map) take their own short-lived locks. Host rows
// are shared across workflows and pin to partition 0.
type Archive struct {
	store *relstore.Store
	c     *Columns // every table's layout and column handles, resolved in New

	wfMu  sync.RWMutex
	wfIDs map[string]int64 // wf_uuid -> workflow row id

	hostMu  sync.Mutex
	hostIDs map[hostKey]int64 // (site, hostname, ip) -> host row id

	host relstore.Writer // partition-0 writer for cross-workflow host rows

	parts   []partState // one per store partition, indexed by Route
	applied atomic.Uint64
}

type jobKey struct {
	wfID  int64
	jobID string
}

// instKey is a row and a sequence number under it.
type instKey struct {
	row, seq int64
}

// edgeKey is a task edge (parent and child abs_task_id) or, with job set,
// a job edge (exec_job_ids) of one workflow row.
type edgeKey struct {
	wfID          int64
	job           bool
	parent, child string
}

type hostKey struct {
	site, hostname, ip string
}

// partOf returns the state of the partition uuid routes to.
func (a *Archive) partOf(uuid string) *partState {
	return &a.parts[Route(uuid, len(a.parts))]
}

// New creates the Figure 3 tables on store (idempotently) and returns an
// archive over it.
func New(store *relstore.Store) (*Archive, error) {
	for _, ts := range Schemas() {
		if err := store.CreateTable(ts); err != nil {
			return nil, err
		}
	}
	c, err := ResolveColumns(store)
	if err != nil {
		return nil, err
	}
	a := &Archive{
		store:   store,
		c:       c,
		wfIDs:   map[string]int64{},
		hostIDs: map[hostKey]int64{},
		host:    store.Writer(0),
		parts:   make([]partState, store.NumPartitions()),
	}
	for i := range a.parts {
		st := &a.parts[i]
		st.w = store.Writer(i)
		st.jobIDs = map[jobKey]int64{}
		st.taskIDs = map[jobKey]int64{}
		st.insts = map[instKey]*instState{}
		st.edges = map[edgeKey]struct{}{}
		st.invs = map[instKey]struct{}{}
	}
	if err := a.warmCaches(); err != nil {
		return nil, err
	}
	for _, ts := range Schemas() {
		table := ts.Name
		mRows.SetFunc(func() float64 {
			n, err := store.Count(table)
			if err != nil {
				return 0
			}
			return float64(n)
		}, table)
	}
	for i := range a.parts {
		st := &a.parts[i]
		mFreshness.SetFunc(func() float64 {
			ns := st.newest.Load()
			if ns == 0 {
				return 0
			}
			return float64(time.Now().UnixNano()-ns) / 1e9
		}, strconv.Itoa(i))
	}
	return a, nil
}

// NewInMemory returns an archive over a fresh in-memory store.
func NewInMemory() *Archive {
	a, err := New(relstore.NewStore())
	if err != nil {
		// Static schemas failing to create is a build defect.
		panic(err)
	}
	return a
}

// NewInMemoryN returns an archive over a fresh in-memory store with
// parts partitions. The loader hands each partition's workflows to one
// apply shard (see Route), so shards and partitions line up 1:1 when parts
// equals the shard count.
func NewInMemoryN(parts int) *Archive {
	a, err := New(relstore.NewStoreN(parts))
	if err != nil {
		panic(err)
	}
	return a
}

// OpenDir returns an archive over a partitioned durable store rooted at
// dir (per-partition checkpoints plus WAL segments), creating or
// recovering it as needed. The partition count recorded in the
// directory's manifest wins over opts on reopen.
func OpenDir(dir string, opts relstore.Options) (*Archive, error) {
	store, err := relstore.OpenDir(dir, opts)
	if err != nil {
		return nil, err
	}
	a, err := New(store)
	if err != nil {
		store.Close()
		return nil, err
	}
	return a, nil
}

// LoadDir returns an in-memory archive holding what the store directory
// at dir holds, without writing to the directory: the way to read a
// database another process may still be loading (see relstore.LoadDir).
func LoadDir(dir string) (*Archive, error) {
	store, err := relstore.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return New(store)
}

// warmCaches rebuilds the identity maps from an existing store so that
// appending to a reopened database works. Per-workflow entries go to the
// partition their workflow uuid routes to; warmCaches runs before the
// archive is shared, so no locks are needed. Every table read comes from
// one snapshot, so the caches describe a single point in history.
func (a *Archive) warmCaches() error {
	sn := a.store.Snapshot()
	defer sn.Close()
	c := a.c
	var err error
	// sel reads a whole table; after a failed read it reads nothing more,
	// and warmCaches returns the error.
	sel := func(table string) []*relstore.Row {
		var rows []*relstore.Row
		if err == nil {
			rows, err = sn.Select(relstore.Query{Table: table})
		}
		return rows
	}
	wfUUID := map[int64]string{} // workflow row id -> uuid
	for _, r := range sel(TWorkflow) {
		uuid := r.Str(c.Workflow.UUID)
		a.wfIDs[uuid] = r.ID()
		wfUUID[r.ID()] = uuid
	}
	part := func(wf int64) *partState { return a.partOf(wfUUID[wf]) }
	for _, r := range sel(TTask) {
		wf := r.Int(c.Task.WfID)
		part(wf).taskIDs[jobKey{wf, r.Str(c.Task.AbsTaskID)}] = r.ID()
	}
	for _, r := range sel(TTaskEdge) {
		wf := r.Int(c.TaskEdge.WfID)
		part(wf).edges[edgeKey{wf, false, r.Str(c.TaskEdge.Parent), r.Str(c.TaskEdge.Child)}] = struct{}{}
	}
	for _, r := range sel(TJobEdge) {
		wf := r.Int(c.JobEdge.WfID)
		part(wf).edges[edgeKey{wf, true, r.Str(c.JobEdge.Parent), r.Str(c.JobEdge.Child)}] = struct{}{}
	}
	jobWF := map[int64]int64{} // job row id -> workflow row id
	for _, r := range sel(TJob) {
		wf := r.Int(c.Job.WfID)
		jobWF[r.ID()] = wf
		part(wf).jobIDs[jobKey{wf, r.Str(c.Job.ExecJobID)}] = r.ID()
	}
	instByID := map[int64]*instState{}
	for _, r := range sel(TJobInstance) {
		job := r.Int(c.JobInstance.JobID)
		is := &instState{id: r.ID()}
		part(jobWF[job]).insts[instKey{job, r.Int(c.JobInstance.SubmitSeq)}] = is
		instByID[r.ID()] = is
	}
	for _, r := range sel(TInvocation) {
		inst, seq := r.Int(c.Invocation.JobInstanceID), r.Int(c.Invocation.TaskSubmitSeq)
		part(r.Int(c.Invocation.WfID)).invs[instKey{inst, seq}] = struct{}{}
		if is := instByID[inst]; is != nil {
			is.invSeq = max(is.invSeq, seq+1)
		}
	}
	for _, r := range sel(THost) {
		a.hostIDs[hostKey{r.Str(c.Host.Site), r.Str(c.Host.Hostname), r.Str(c.Host.IP)}] = r.ID()
	}
	execSeq := make(map[int64]int64) // job_instance row id -> seq of cached EXECUTE
	for _, r := range sel(TJobState) {
		is, ok := instByID[r.Int(c.JobState.JobInstanceID)]
		if !ok {
			continue
		}
		seq := r.Int(c.JobState.SubmitSeq)
		is.stateSeq = max(is.stateSeq, seq+1)
		if r.Str(c.JobState.State) == JSExecute {
			if s, ok := execSeq[is.id]; !ok || seq >= s {
				execSeq[is.id] = seq
				is.execTS = r.Time(c.JobState.Timestamp)
			}
		}
	}
	return err
}

// Store exposes the underlying relational store for the query layer.
func (a *Archive) Store() *relstore.Store { return a.store }

// Columns returns the store's Figure 3 layouts and column handles, as New
// resolved them.
func (a *Archive) Columns() *Columns { return a.c }

// Snapshot returns a point-in-time read view across every archive table.
// Readers on the snapshot never block Apply and never observe a torn
// mid-batch state; the caller must Close it to unpin version history.
func (a *Archive) Snapshot() *relstore.Snapshot { return a.store.Snapshot() }

// Applied reports how many events have been folded in.
func (a *Archive) Applied() uint64 { return a.applied.Load() }

// Watermark returns the archive's freshness watermark, the newest event
// timestamp applied in any partition, and false while nothing has been
// applied. Events that name no workflow do not count. Out-of-order applies
// (restart replays, multi-producer buses) never move it back.
func (a *Archive) Watermark() (time.Time, bool) {
	var max int64
	for i := range a.parts {
		if ns := a.parts[i].newest.Load(); ns > max {
			max = ns
		}
	}
	if max == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, max).UTC(), true
}

// Flush persists buffered writes (no-op for in-memory stores).
func (a *Archive) Flush() error { return a.store.Flush() }

// Close flushes and closes the underlying store.
func (a *Archive) Close() error { return a.store.Close() }

// ErrUnknownEvent is wrapped by Apply for event types the archive does not
// materialise. The loader counts and skips these rather than failing.
var ErrUnknownEvent = errors.New("archive: event type not materialised")

// Apply folds one event into the tables. Events must arrive in a causally
// consistent order per workflow (the order engines emit them); duplicate
// static events (workflow restarts re-emit task/job descriptions) are
// tolerated and skipped.
func (a *Archive) Apply(ev *bp.Event) error {
	uuid := ev.Get(schema.AttrXwfID)
	st := a.partOf(uuid)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := a.applyLocked(st, ev); err != nil {
		return fmt.Errorf("archive: %s at %s: %w", ev.Type, ev.TS.Format("15:04:05.000"), err)
	}
	st.advance(uuid, ev.TS)
	a.applied.Add(1)
	mApplied.Inc()
	return nil
}

// advance raises the partition's watermark to ts after a successful apply
// of an event of workflow uuid. Called under st.mu.
func (st *partState) advance(uuid string, ts time.Time) {
	if ns := ts.UnixNano(); uuid != "" && ns > st.newest.Load() {
		st.newest.Store(ns)
	}
}

// ApplyBatch folds a slice of events, holding each partition state's lock
// across runs of consecutive same-partition events; the loader's batching
// path. The first error aborts the rest of the batch; the returned count
// is how many events were applied, so callers can resume after the
// failing event without re-applying the prefix.
func (a *Archive) ApplyBatch(evs []*bp.Event) (n int, err error) {
	var cur *partState
	defer func() {
		if cur != nil {
			cur.mu.Unlock()
		}
	}()
	// Counters move once per batch, not per event: the two atomic adds
	// are measurable at loader rates and the totals only need to be
	// eventually exact, which the error path below preserves.
	for i, ev := range evs {
		uuid := ev.Get(schema.AttrXwfID)
		st := a.partOf(uuid)
		if st != cur {
			if cur != nil {
				cur.mu.Unlock()
			}
			st.mu.Lock()
			cur = st
		}
		if err := a.applyLocked(st, ev); err != nil {
			if i > 0 {
				a.applied.Add(uint64(i))
				mApplied.Add(uint64(i))
			}
			return i, fmt.Errorf("archive: %s: %w", ev.Type, err)
		}
		st.advance(uuid, ev.TS)
	}
	if len(evs) > 0 {
		a.applied.Add(uint64(len(evs)))
		mApplied.Add(uint64(len(evs)))
	}
	return len(evs), nil
}

func (a *Archive) applyLocked(st *partState, ev *bp.Event) error {
	switch ev.Type {
	case schema.WfPlan:
		return a.applyPlan(ev)
	case schema.StaticStart, schema.StaticEnd:
		return nil // structural markers; nothing to materialise
	case schema.XwfStart:
		return a.applyWorkflowState(st, ev, WFStateStarted)
	case schema.XwfEnd:
		return a.applyWorkflowState(st, ev, WFStateTerminated)
	case schema.TaskInfo:
		return a.applyTaskInfo(st, ev)
	case schema.TaskEdge:
		return a.applyEdge(st, ev, false)
	case schema.JobInfo:
		return a.applyJobInfo(st, ev)
	case schema.JobEdge:
		return a.applyEdge(st, ev, true)
	case schema.MapTaskJob:
		return a.applyMapTaskJob(st, ev)
	case schema.MapSubwfJob:
		return a.applyMapSubwfJob(st, ev)
	case schema.JobInstPre:
		return a.applyJobState(st, ev, JSPreStarted)
	case schema.JobInstPreEnd:
		return a.applyScriptEnd(st, ev, JSPreSuccess, JSPreFailure)
	case schema.SubmitStart:
		return a.applyJobState(st, ev, JSSubmit)
	case schema.SubmitEnd:
		return a.applyJobState(st, ev, JSSubmitted)
	case schema.HeldStart:
		return a.applyJobState(st, ev, JSHeld)
	case schema.HeldEnd:
		return a.applyJobState(st, ev, JSReleased)
	case schema.MainStart:
		return a.applyMainStart(st, ev)
	case schema.MainTerm:
		return a.applyJobState(st, ev, JSTerminated)
	case schema.MainError:
		return a.applyJobState(st, ev, JSMainError)
	case schema.MainEnd:
		return a.applyMainEnd(st, ev)
	case schema.PostStart:
		return a.applyJobState(st, ev, JSPostStarted)
	case schema.PostEnd:
		return a.applyScriptEnd(st, ev, JSPostSuccess, JSPostFailure)
	case schema.HostInfo:
		return a.applyHostInfo(st, ev)
	case schema.ImageInfo:
		return nil // image sizes are not used by any report we produce
	case schema.AbortInfo:
		return a.applyJobState(st, ev, JSAborted)
	case schema.InvStart:
		return nil // the inv.end record carries everything we store
	case schema.InvEnd:
		return a.applyInvEnd(st, ev)
	default:
		return fmt.Errorf("%w: %s", ErrUnknownEvent, ev.Type)
	}
}

// lookupWF returns the cached workflow row id for uuid, if present.
func (a *Archive) lookupWF(uuid string) (int64, bool) {
	a.wfMu.RLock()
	id, ok := a.wfIDs[uuid]
	a.wfMu.RUnlock()
	return id, ok
}

// ensureWF returns the row id for uuid, inserting a minimal placeholder
// row when absent, through the writer of the partition uuid itself routes
// to — not the caller's: a child's plan event references its parent, and
// the parent's row has to land in the parent's own partition. Check-and-
// insert holds the workflow mutex, so any caller may safely materialise any
// workflow before that workflow's own events have been applied (routine
// under sharded loading, where parent and child stream through different
// shards), and two callers racing on one uuid still produce exactly one
// row.
func (a *Archive) ensureWF(uuid string, ts time.Time) (int64, error) {
	a.wfMu.Lock()
	defer a.wfMu.Unlock()
	if id, ok := a.wfIDs[uuid]; ok {
		return id, nil
	}
	c, w := &a.c.Workflow, a.partOf(uuid).w
	d := w.NewRow(c.Layout)
	d.SetStr(c.UUID, uuid)
	d.SetTime(c.Timestamp, ts)
	id, err := w.Insert(&d)
	if err != nil {
		return 0, err
	}
	a.wfIDs[uuid] = id
	return id, nil
}

// wfRow returns the workflow row id for the event's xwf.id, creating a
// minimal placeholder when the plan event has not been seen (events can
// race ahead of the plan on multi-producer buses). The partition's memo
// makes the common consecutive-same-workflow case lock-free.
func (a *Archive) wfRow(st *partState, ev *bp.Event) (int64, error) {
	uuid := ev.Get(schema.AttrXwfID)
	if uuid == "" {
		return 0, errors.New("event lacks xwf.id")
	}
	if uuid == st.lastUUID {
		return st.lastWF, nil
	}
	id, ok := a.lookupWF(uuid)
	if !ok {
		var err error
		if id, err = a.ensureWF(uuid, ev.TS); err != nil {
			return 0, err
		}
	}
	st.lastUUID = uuid
	st.lastWF = id
	return id, nil
}

func (a *Archive) applyPlan(ev *bp.Event) error {
	uuid := ev.Get(schema.AttrXwfID)
	if uuid == "" {
		return errors.New("wf.plan lacks xwf.id")
	}
	var parent int64
	if p := ev.Get(schema.AttrParentXwf); p != "" {
		var err error
		if parent, err = a.ensureWF(p, ev.TS); err != nil {
			return err
		}
	}
	// Materialise (or find) the row, then write the plan metadata onto it.
	// One path covers first plan, replan after restart, and a placeholder
	// created earlier by a child or out-of-order event.
	wf, err := a.ensureWF(uuid, ev.TS)
	if err != nil {
		return err
	}
	c, w := &a.c.Workflow, a.partOf(uuid).w
	d := w.Edit(c.Layout, wf)
	d.SetTime(c.Timestamp, ev.TS)
	d.SetStr(c.SubmitHostname, ev.Get("submit.hostname"))
	d.SetStr(c.DaxLabel, ev.Get("dax.label"))
	d.SetStr(c.DaxVersion, ev.Get("dax.version"))
	d.SetStr(c.DaxFile, ev.Get("dax.file"))
	d.SetStr(c.DagFileName, ev.Get("dag.file.name"))
	d.SetStr(c.SubmitDir, ev.Get("submit_dir"))
	d.SetStr(c.PlannerArguments, ev.Get(schema.AttrArgv))
	d.SetStr(c.User, ev.Get("user"))
	d.SetStr(c.PlannerVersion, ev.Get("planner.version"))
	d.SetStr(c.RootUUID, ev.Get(schema.AttrRootXwf))
	if parent != 0 {
		d.SetInt(c.ParentID, parent)
	} else {
		d.SetNull(c.ParentID)
	}
	return w.Update(&d)
}

func (a *Archive) applyWorkflowState(st *partState, ev *bp.Event, state string) error {
	wf, err := a.wfRow(st, ev)
	if err != nil {
		return err
	}
	c := &a.c.WorkflowState
	d := st.w.NewRow(c.Layout)
	d.SetInt(c.WfID, wf)
	d.SetStr(c.State, state)
	d.SetTime(c.Timestamp, ev.TS)
	restarts, _ := ev.Int("restart_count")
	d.SetInt(c.RestartCount, restarts)
	if ev.Has(schema.AttrStatus) {
		status, err := needInt(ev, schema.AttrStatus)
		if err != nil {
			return err
		}
		d.SetInt(c.Status, status)
	}
	_, err = st.w.Insert(&d)
	return err
}

func (a *Archive) applyTaskInfo(st *partState, ev *bp.Event) error {
	wf, err := a.wfRow(st, ev)
	if err != nil {
		return err
	}
	k := jobKey{wf, ev.Get(schema.AttrTaskID)}
	if _, dup := st.taskIDs[k]; dup {
		mDuplicates.With(TTask).Inc()
		return nil
	}
	c := &a.c.Task
	d := st.w.NewRow(c.Layout)
	d.SetInt(c.WfID, wf)
	d.SetStr(c.AbsTaskID, k.jobID)
	d.SetStr(c.TypeDesc, ev.Get("type_desc"))
	d.SetStr(c.Transformation, ev.Get(schema.AttrTransform))
	d.SetStr(c.Argv, ev.Get(schema.AttrArgv))
	id, err := st.w.Insert(&d)
	if err != nil {
		return err
	}
	st.taskIDs[k] = id
	return nil
}

// applyEdge inserts a task edge, or a job edge when job is set, unless
// the workflow has it already: a restart re-emits its description.
func (a *Archive) applyEdge(st *partState, ev *bp.Event, job bool) error {
	wf, err := a.wfRow(st, ev)
	if err != nil {
		return err
	}
	c, table, parent, child := &a.c.TaskEdge, TTaskEdge, "parent.task.id", "child.task.id"
	if job {
		c, table, parent, child = &a.c.JobEdge, TJobEdge, "parent.job.id", "child.job.id"
	}
	k := edgeKey{wf, job, ev.Get(parent), ev.Get(child)}
	if _, dup := st.edges[k]; dup {
		mDuplicates.With(table).Inc()
		return nil
	}
	d := st.w.NewRow(c.Layout)
	d.SetInt(c.WfID, wf)
	d.SetStr(c.Parent, k.parent)
	d.SetStr(c.Child, k.child)
	if _, err := st.w.Insert(&d); err != nil {
		return err
	}
	st.edges[k] = struct{}{}
	return nil
}

func (a *Archive) applyJobInfo(st *partState, ev *bp.Event) error {
	wf, err := a.wfRow(st, ev)
	if err != nil {
		return err
	}
	// A job.info for a job that has a row — a restart's re-emitted
	// description, or one arriving after an earlier job_inst.* event made a
	// placeholder — is skipped: what the row holds stays as it is.
	k := jobKey{wf, ev.Get(schema.AttrJobID)}
	if _, dup := st.jobIDs[k]; dup {
		mDuplicates.With(TJob).Inc()
		return nil
	}
	c := &a.c.Job
	d := st.w.NewRow(c.Layout)
	d.SetInt(c.WfID, wf)
	d.SetStr(c.ExecJobID, k.jobID)
	d.SetStr(c.TypeDesc, ev.Get("type_desc"))
	clustered, _ := ev.Int("clustered")
	retries, _ := ev.Int("max_retries")
	tasks, _ := ev.Int("task_count")
	d.SetBool(c.Clustered, clustered != 0)
	d.SetInt(c.MaxRetries, retries)
	d.SetStr(c.Executable, ev.Get(schema.AttrExecutable))
	d.SetStr(c.Argv, ev.Get(schema.AttrArgv))
	d.SetInt(c.TaskCount, tasks)
	id, err := st.w.Insert(&d)
	if err != nil {
		return err
	}
	st.jobIDs[k] = id
	return nil
}

func (a *Archive) applyMapTaskJob(st *partState, ev *bp.Event) error {
	wf, err := a.wfRow(st, ev)
	if err != nil {
		return err
	}
	jobRow, err := a.jobRow(st, wf, ev.Get(schema.AttrJobID))
	if err != nil {
		return err
	}
	taskID := ev.Get(schema.AttrTaskID)
	task, ok := st.taskIDs[jobKey{wf, taskID}]
	if !ok {
		return fmt.Errorf("map.task_job references unknown task %q", taskID)
	}
	d := st.w.Edit(a.c.Task.Layout, task)
	d.SetInt(a.c.Task.JobID, jobRow)
	return st.w.Update(&d)
}

func (a *Archive) applyMapSubwfJob(st *partState, ev *bp.Event) error {
	is, err := a.instRow(st, ev)
	if err != nil {
		return err
	}
	d := st.w.Edit(a.c.JobInstance.Layout, is.id)
	d.SetStr(a.c.JobInstance.SubwfUUID, ev.Get(schema.AttrSubwfID))
	return st.w.Update(&d)
}

// jobRow resolves (wf row, exec job id) to the job table row, creating a
// placeholder when job.info has not been seen yet.
func (a *Archive) jobRow(st *partState, wf int64, execID string) (int64, error) {
	if execID == "" {
		return 0, errors.New("event lacks job.id")
	}
	k := jobKey{wf, execID}
	if id, ok := st.jobIDs[k]; ok {
		return id, nil
	}
	d := st.w.NewRow(a.c.Job.Layout)
	d.SetInt(a.c.Job.WfID, wf)
	d.SetStr(a.c.Job.ExecJobID, execID)
	id, err := st.w.Insert(&d)
	if err != nil {
		return 0, err
	}
	st.jobIDs[k] = id
	return id, nil
}

// instRow resolves the (job, submit seq) of a job_inst.* event to the
// job_instance state, creating the row on first reference.
func (a *Archive) instRow(st *partState, ev *bp.Event) (*instState, error) {
	wf, err := a.wfRow(st, ev)
	if err != nil {
		return nil, err
	}
	jobRow, err := a.jobRow(st, wf, ev.Get(schema.AttrJobID))
	if err != nil {
		return nil, err
	}
	seq, err := needInt(ev, schema.AttrJobInstID)
	if err != nil {
		return nil, err
	}
	k := instKey{jobRow, seq}
	if is, ok := st.insts[k]; ok {
		return is, nil
	}
	d := st.w.NewRow(a.c.JobInstance.Layout)
	d.SetInt(a.c.JobInstance.JobID, jobRow)
	d.SetInt(a.c.JobInstance.SubmitSeq, seq)
	id, err := st.w.Insert(&d)
	if err != nil {
		return nil, err
	}
	is := &instState{id: id}
	st.insts[k] = is
	return is, nil
}

func (a *Archive) applyJobState(st *partState, ev *bp.Event, state string) error {
	is, err := a.instRow(st, ev)
	if err != nil {
		return err
	}
	return a.insertJobState(st, is, state, ev)
}

// insertJobState is the hottest archive write: every lifecycle event of
// every job instance lands here.
func (a *Archive) insertJobState(st *partState, is *instState, state string, ev *bp.Event) error {
	seq := is.stateSeq
	is.stateSeq = seq + 1
	c := &a.c.JobState
	d := st.w.NewRow(c.Layout)
	d.SetInt(c.JobInstanceID, is.id)
	d.SetStr(c.State, state)
	d.SetTime(c.Timestamp, ev.TS)
	d.SetInt(c.SubmitSeq, seq)
	_, err := st.w.Insert(&d)
	return err
}

func (a *Archive) applyScriptEnd(st *partState, ev *bp.Event, okState, failState string) error {
	is, err := a.instRow(st, ev)
	if err != nil {
		return err
	}
	state := okState
	if code, ok := ev.Int(schema.AttrExitcode); ok && code != 0 {
		state = failState
	}
	return a.insertJobState(st, is, state, ev)
}

func (a *Archive) applyMainStart(st *partState, ev *bp.Event) error {
	is, err := a.instRow(st, ev)
	if err != nil {
		return err
	}
	stdout, stderr := ev.Get("stdout.file"), ev.Get("stderr.file")
	if stdout != "" || stderr != "" {
		c := &a.c.JobInstance
		d := st.w.Edit(c.Layout, is.id)
		if stdout != "" {
			d.SetStr(c.StdoutFile, stdout)
		}
		if stderr != "" {
			d.SetStr(c.StderrFile, stderr)
		}
		if err := st.w.Update(&d); err != nil {
			return err
		}
	}
	is.execTS = ev.TS
	return a.insertJobState(st, is, JSExecute, ev)
}

func (a *Archive) applyMainEnd(st *partState, ev *bp.Event) error {
	is, err := a.instRow(st, ev)
	if err != nil {
		return err
	}
	exitcode, err := needInt(ev, schema.AttrExitcode)
	if err != nil {
		return err
	}
	c := &a.c.JobInstance
	d := st.w.Edit(c.Layout, is.id)
	d.SetInt(c.Exitcode, exitcode)
	if s := ev.Get(schema.AttrSite); s != "" {
		d.SetStr(c.Site, s)
	}
	if u := ev.Get("user"); u != "" {
		d.SetStr(c.User, u)
	}
	if s := ev.Get(schema.AttrStdoutText); s != "" {
		d.SetStr(c.StdoutText, s)
	}
	if s := ev.Get(schema.AttrStderrText); s != "" {
		d.SetStr(c.StderrText, s)
	}
	if m, ok := ev.Int("multiplier_factor"); ok {
		d.SetInt(c.MultiplierFactor, m)
	}
	// local_duration = main.end ts - the matching EXECUTE state ts, the
	// runtime "as measured by the workflow engine" in the paper's job
	// statistics. The instance state carries the latest EXECUTE timestamp
	// (set by main.start, warmed from the jobstate table on reopen) so
	// this does not re-select the instance's state history for every
	// completing job.
	if !is.execTS.IsZero() {
		d.SetFloat(c.LocalDuration, ev.TS.Sub(is.execTS).Seconds())
	}
	if err := st.w.Update(&d); err != nil {
		return err
	}
	state := JSSuccess
	if exitcode != 0 {
		state = JSFailure
	}
	return a.insertJobState(st, is, state, ev)
}

func (a *Archive) applyHostInfo(st *partState, ev *bp.Event) error {
	is, err := a.instRow(st, ev)
	if err != nil {
		return err
	}
	k := hostKey{ev.Get(schema.AttrSite), ev.Get(schema.AttrHostname), ev.Get("ip")}
	// Hosts are shared across workflows, so the lookup-or-insert must be
	// atomic under its own lock: nothing else keeps two partitions from
	// inserting one host twice.
	a.hostMu.Lock()
	hid, ok := a.hostIDs[k]
	if !ok {
		c := &a.c.Host
		d := a.host.NewRow(c.Layout)
		d.SetStr(c.Site, k.site)
		d.SetStr(c.Hostname, k.hostname)
		d.SetStr(c.IP, k.ip)
		if u := ev.Get("uname"); u != "" {
			d.SetStr(c.Uname, u)
		}
		if m, ok := ev.Int("total_memory"); ok {
			d.SetInt(c.TotalMemory, m)
		}
		hid, err = a.host.Insert(&d)
		if err != nil {
			a.hostMu.Unlock()
			return err
		}
		a.hostIDs[k] = hid
	}
	a.hostMu.Unlock()
	d := st.w.Edit(a.c.JobInstance.Layout, is.id)
	d.SetInt(a.c.JobInstance.HostID, hid)
	d.SetStr(a.c.JobInstance.Site, k.site)
	return st.w.Update(&d)
}

func (a *Archive) applyInvEnd(st *partState, ev *bp.Event) error {
	wf, err := a.wfRow(st, ev)
	if err != nil {
		return err
	}
	is, err := a.instRow(st, ev)
	if err != nil {
		return err
	}
	seq, ok := ev.Int(schema.AttrInvID)
	if !ok {
		seq = is.invSeq
		is.invSeq = seq + 1
	}
	k := instKey{is.id, seq}
	if _, dup := st.invs[k]; dup {
		mDuplicates.With(TInvocation).Inc()
		return nil
	}
	c := &a.c.Invocation
	d := st.w.NewRow(c.Layout)
	d.SetInt(c.JobInstanceID, is.id)
	d.SetInt(c.WfID, wf)
	d.SetInt(c.TaskSubmitSeq, seq)
	d.SetStr(c.Transformation, ev.Get(schema.AttrTransform))
	d.SetStr(c.Executable, ev.Get(schema.AttrExecutable))
	d.SetStr(c.Argv, ev.Get(schema.AttrArgv))
	d.SetStr(c.AbsTaskID, ev.Get(schema.AttrTaskID))
	if ts := ev.Get(schema.AttrStartTime); ts != "" {
		if parsed, err := bp.ParseTime(ts); err == nil {
			d.SetTime(c.StartTime, parsed)
		}
	}
	if dur, ok := ev.Float(schema.AttrDur); ok {
		d.SetFloat(c.RemoteDuration, dur)
	}
	if cpu, ok := ev.Float(schema.AttrRemoteCPU); ok {
		d.SetFloat(c.RemoteCPUTime, cpu)
	}
	if x, ok := ev.Int(schema.AttrExitcode); ok {
		d.SetInt(c.Exitcode, x)
	}
	if _, err := st.w.Insert(&d); err != nil {
		return err
	}
	st.invs[k] = struct{}{}
	return nil
}

// needInt reads an integer attribute the event cannot be applied without.
func needInt(ev *bp.Event, key string) (int64, error) {
	n, ok := ev.Int(key)
	if !ok {
		return 0, fmt.Errorf("%s is missing or not an integer: %q", key, ev.Get(key))
	}
	return n, nil
}
