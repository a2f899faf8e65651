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
	"repro/internal/trace"
)

// intAttr and floatAttr read optional numeric attributes. They exist
// because bp.Event.Int/Float build an error value when the attribute is
// absent, and "absent" is the common case for optional columns — on the
// apply hot path that error is a pointless heap allocation per event.
func intAttr(ev *bp.Event, key string) (int64, bool) {
	v, ok := ev.Lookup(key)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(v, 10, 64)
	return n, err == nil
}

func floatAttr(ev *bp.Event, key string) (float64, bool) {
	v, ok := ev.Lookup(key)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	return f, err == nil
}

// Archive telemetry.
var (
	mApplied = telemetry.NewCounter("stampede_archive_events_applied_total",
		"Events folded into archive tables.")
	mRows = telemetry.NewGaugeVec("stampede_archive_rows",
		"Rows per archive table (sampled at scrape time).", "table")
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
// partition's writer and the identity caches of the workflows that route to
// it (jobs, tasks, job instances and their sequence counters), under one
// mutex. The loader enters a partition from one apply shard only, so under
// it the mutex is never contended; it is what keeps Apply and ApplyBatch
// safe for callers that make no such promise.
type partState struct {
	mu      sync.Mutex
	w       relstore.Writer
	jobIDs  map[jobKey]boxed       // (wf row, exec_job_id) -> job row id
	taskIDs map[jobKey]int64       // (wf row, abs_task_id) -> task row id
	insts   map[instKey]*instState // (job row, submit seq) -> instance state

	// Last workflow resolved in this partition. Events arrive in
	// per-workflow runs, so this single-entry memo turns the per-event uuid
	// -> row resolution (an RLock plus a 36-byte string hash) into one string
	// compare. Guarded by mu like everything else here; never invalidated,
	// because a workflow's row id is immutable once assigned.
	lastUUID string
	lastWF   boxed

	// Freshness-watermark memo for the tracing layer, same discipline as
	// lastUUID/lastWF: one cached pointer turns the per-event watermark
	// advance into a string compare plus a max-CAS.
	wmUUID string
	wm     *trace.Watermark
}

// boxed pairs a row id with the same value pre-converted to any. Handlers
// put ids into Row values on every event; converting a dynamic int64 to
// an interface heap-allocates, so the caches keep the one boxed copy made
// when the id was first learned and reuse it for the row's lifetime.
type boxed struct {
	id  int64
	box any
}

// instState is the per-job-instance hot-path state, held in one struct so
// the lifecycle handlers resolve everything about an instance with a
// single map lookup: the jobstate and invocation sequence counters, the
// pre-boxed row id (see boxed), and the latest EXECUTE timestamp — kept
// so main.end can compute local_duration without selecting (and cloning)
// the instance's whole jobstate history per terminating job.
type instState struct {
	id       int64
	box      any
	stateSeq int64
	invSeq   int64
	execTS   time.Time // zero = no EXECUTE seen
}

// Archive folds Stampede events into the relational store. It keeps small
// identity caches (workflow uuid -> row id, job key -> row id, instance
// key -> row id) so the per-event hot path costs O(1) map lookups instead
// of index queries, which is what lets the loader keep up with large
// workflows in real time.
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

	wfMu  sync.RWMutex
	wfIDs map[string]boxed // wf_uuid -> workflow row id

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

type instKey struct {
	jobRow int64
	seq    int64
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
	a := &Archive{
		store:   store,
		wfIDs:   map[string]boxed{},
		hostIDs: map[hostKey]int64{},
		host:    store.Writer(0),
		parts:   make([]partState, store.NumPartitions()),
	}
	for i := range a.parts {
		st := &a.parts[i]
		st.w = store.Writer(i)
		st.jobIDs = map[jobKey]boxed{}
		st.taskIDs = map[jobKey]int64{}
		st.insts = map[instKey]*instState{}
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

// warmCaches rebuilds the identity caches from an existing store so that
// appending to a reopened database works. Per-workflow entries go to the
// partition their workflow uuid routes to; warmCaches runs before the
// archive is shared, so no locks are needed. All five table reads come
// from one snapshot, so the caches describe a single point in history.
func (a *Archive) warmCaches() error {
	sn := a.store.Snapshot()
	defer sn.Close()
	wfs, err := sn.Select(relstore.Query{Table: TWorkflow})
	if err != nil {
		return err
	}
	wfUUID := make(map[int64]string, len(wfs)) // workflow row id -> uuid
	for _, r := range wfs {
		uuid := r["wf_uuid"].(string)
		a.wfIDs[uuid] = boxed{r.ID(), r["id"]}
		wfUUID[r.ID()] = uuid
	}
	tasks, err := sn.Select(relstore.Query{Table: TTask})
	if err != nil {
		return err
	}
	for _, r := range tasks {
		wf := r["wf_id"].(int64)
		st := a.partOf(wfUUID[wf])
		st.taskIDs[jobKey{wf, r["abs_task_id"].(string)}] = r.ID()
	}
	jobs, err := sn.Select(relstore.Query{Table: TJob})
	if err != nil {
		return err
	}
	jobWF := make(map[int64]int64, len(jobs)) // job row id -> workflow row id
	for _, r := range jobs {
		wf := r["wf_id"].(int64)
		jobWF[r.ID()] = wf
		st := a.partOf(wfUUID[wf])
		st.jobIDs[jobKey{wf, r["exec_job_id"].(string)}] = boxed{r.ID(), r["id"]}
	}
	insts, err := sn.Select(relstore.Query{Table: TJobInstance})
	if err != nil {
		return err
	}
	instByID := make(map[int64]*instState, len(insts))
	for _, r := range insts {
		job := r["job_id"].(int64)
		st := a.partOf(wfUUID[jobWF[job]])
		is := &instState{id: r.ID(), box: r["id"]}
		st.insts[instKey{job, r["job_submit_seq"].(int64)}] = is
		instByID[r.ID()] = is
	}
	hosts, err := sn.Select(relstore.Query{Table: THost})
	if err != nil {
		return err
	}
	for _, r := range hosts {
		a.hostIDs[hostKey{r["site"].(string), r["hostname"].(string), r["ip"].(string)}] = r.ID()
	}
	states, err := sn.Select(relstore.Query{Table: TJobState})
	if err != nil {
		return err
	}
	execSeq := make(map[int64]int64) // job_instance row id -> seq of cached EXECUTE
	for _, r := range states {
		is, ok := instByID[r["job_instance_id"].(int64)]
		if !ok {
			continue
		}
		seq := r["jobstate_submit_seq"].(int64)
		if seq >= is.stateSeq {
			is.stateSeq = seq + 1
		}
		if r["state"] == JSExecute {
			if s, ok := execSeq[is.id]; !ok || seq >= s {
				execSeq[is.id] = seq
				is.execTS = r["timestamp"].(time.Time)
			}
		}
	}
	return nil
}

// Store exposes the underlying relational store for the query layer.
func (a *Archive) Store() *relstore.Store { return a.store }

// Snapshot returns a point-in-time read view across every archive table.
// Readers on the snapshot never block Apply and never observe a torn
// mid-batch state; the caller must Close it to unpin version history.
func (a *Archive) Snapshot() *relstore.Snapshot { return a.store.Snapshot() }

// Applied reports how many events have been folded in.
func (a *Archive) Applied() uint64 { return a.applied.Load() }

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
	st := a.partOf(ev.Get(schema.AttrXwfID))
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := a.applyLocked(st, ev); err != nil {
		return fmt.Errorf("archive: %s at %s: %w", ev.Type, ev.TS.Format("15:04:05.000"), err)
	}
	advanceWatermark(st, ev)
	a.applied.Add(1)
	mApplied.Inc()
	return nil
}

// advanceWatermark publishes ev.TS into its workflow's freshness
// watermark (internal/trace) after a successful apply; the dashboard
// exposes now − max as stampede_trace_freshness_seconds. Called under
// the partition state's lock so the memo fields need no further
// synchronisation.
func advanceWatermark(st *partState, ev *bp.Event) {
	uuid := ev.Get(schema.AttrXwfID)
	if uuid == "" {
		return
	}
	if uuid != st.wmUUID {
		st.wmUUID, st.wm = uuid, trace.WatermarkFor(uuid)
	}
	st.wm.Advance(ev.TS.UnixNano())
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
		st := a.partOf(ev.Get(schema.AttrXwfID))
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
		advanceWatermark(st, ev)
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
		return a.applyTaskEdge(st, ev)
	case schema.JobInfo:
		return a.applyJobInfo(st, ev)
	case schema.JobEdge:
		return a.applyJobEdge(st, ev)
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
func (a *Archive) lookupWF(uuid string) (boxed, bool) {
	a.wfMu.RLock()
	b, ok := a.wfIDs[uuid]
	a.wfMu.RUnlock()
	return b, ok
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
func (a *Archive) ensureWF(uuid string, ts time.Time) (boxed, error) {
	a.wfMu.Lock()
	defer a.wfMu.Unlock()
	if b, ok := a.wfIDs[uuid]; ok {
		return b, nil
	}
	id, err := a.partOf(uuid).w.InsertOwned(TWorkflow, relstore.Row{
		"wf_uuid":   uuid,
		"timestamp": ts,
	})
	if err != nil {
		return boxed{}, err
	}
	b := boxed{id, id}
	a.wfIDs[uuid] = b
	return b, nil
}

// wfRow returns the workflow row id for the event's xwf.id, creating a
// minimal placeholder when the plan event has not been seen (events can
// race ahead of the plan on multi-producer buses). The partition's memo
// makes the common consecutive-same-workflow case lock-free.
func (a *Archive) wfRow(st *partState, ev *bp.Event) (boxed, error) {
	uuid := ev.Get(schema.AttrXwfID)
	if uuid == "" {
		return boxed{}, errors.New("event lacks xwf.id")
	}
	if uuid == st.lastUUID {
		return st.lastWF, nil
	}
	b, ok := a.lookupWF(uuid)
	if !ok {
		var err error
		if b, err = a.ensureWF(uuid, ev.TS); err != nil {
			return boxed{}, err
		}
	}
	st.lastUUID = uuid
	st.lastWF = b
	return b, nil
}

func (a *Archive) applyPlan(ev *bp.Event) error {
	uuid := ev.Get(schema.AttrXwfID)
	if uuid == "" {
		return errors.New("wf.plan lacks xwf.id")
	}
	var parentID any
	if p := ev.Get(schema.AttrParentXwf); p != "" {
		parent, err := a.ensureWF(p, ev.TS)
		if err != nil {
			return err
		}
		parentID = parent.box
	}
	fields := relstore.Row{
		"wf_uuid":           uuid,
		"timestamp":         ev.TS,
		"submit_hostname":   ev.Get("submit.hostname"),
		"dax_label":         ev.Get("dax.label"),
		"dax_version":       ev.Get("dax.version"),
		"dax_file":          ev.Get("dax.file"),
		"dag_file_name":     ev.Get("dag.file.name"),
		"submit_dir":        ev.Get("submit_dir"),
		"planner_arguments": ev.Get(schema.AttrArgv),
		"user":              ev.Get("user"),
		"planner_version":   ev.Get("planner.version"),
		"root_wf_uuid":      ev.Get(schema.AttrRootXwf),
		"parent_wf_id":      parentID,
	}
	// Materialise (or find) the row, then write the plan metadata onto it.
	// One path covers first plan, replan after restart, and a placeholder
	// created earlier by a child or out-of-order event.
	wf, err := a.ensureWF(uuid, ev.TS)
	if err != nil {
		return err
	}
	delete(fields, "wf_uuid")
	return a.partOf(uuid).w.Update(TWorkflow, wf.id, fields)
}

// applyWorkflowState takes state as an any so call sites hand in the
// WFState* constants pre-boxed: converting a constant string to an
// interface uses static data, where boxing a dynamic string parameter
// would allocate per event. insertJobState does the same with JS*.
func (a *Archive) applyWorkflowState(st *partState, ev *bp.Event, state any) error {
	wf, err := a.wfRow(st, ev)
	if err != nil {
		return err
	}
	row := relstore.Row{
		"wf_id":         wf.box,
		"state":         state,
		"timestamp":     ev.TS,
		"restart_count": ev.IntOr("restart_count", 0),
	}
	if ev.Has(schema.AttrStatus) {
		st, err := ev.Int(schema.AttrStatus)
		if err != nil {
			return err
		}
		row["status"] = st
	}
	_, err = st.w.InsertOwned(TWorkflowState, row)
	return err
}

func (a *Archive) applyTaskInfo(st *partState, ev *bp.Event) error {
	wf, err := a.wfRow(st, ev)
	if err != nil {
		return err
	}
	taskID := ev.Get(schema.AttrTaskID)
	id, err := st.w.InsertOwned(TTask, relstore.Row{
		"wf_id":          wf.box,
		"abs_task_id":    taskID,
		"type_desc":      ev.Get("type_desc"),
		"transformation": ev.Get(schema.AttrTransform),
		"argv":           ev.Get(schema.AttrArgv),
	})
	if err != nil {
		return ignoreDuplicate(err)
	}
	st.taskIDs[jobKey{wf.id, taskID}] = id
	return nil
}

func (a *Archive) applyTaskEdge(st *partState, ev *bp.Event) error {
	wf, err := a.wfRow(st, ev)
	if err != nil {
		return err
	}
	_, err = st.w.InsertOwned(TTaskEdge, relstore.Row{
		"wf_id":              wf.box,
		"parent_abs_task_id": ev.Get("parent.task.id"),
		"child_abs_task_id":  ev.Get("child.task.id"),
	})
	return ignoreDuplicate(err)
}

func (a *Archive) applyJobInfo(st *partState, ev *bp.Event) error {
	wf, err := a.wfRow(st, ev)
	if err != nil {
		return err
	}
	execID := ev.Get(schema.AttrJobID)
	id, err := st.w.InsertOwned(TJob, relstore.Row{
		"wf_id":       wf.box,
		"exec_job_id": execID,
		"type_desc":   ev.Get("type_desc"),
		"clustered":   ev.IntOr("clustered", 0) != 0,
		"max_retries": ev.IntOr("max_retries", 0),
		"executable":  ev.Get(schema.AttrExecutable),
		"argv":        ev.Get(schema.AttrArgv),
		"task_count":  ev.IntOr("task_count", 0),
	})
	if err != nil {
		return ignoreDuplicate(err)
	}
	st.jobIDs[jobKey{wf.id, execID}] = boxed{id, id}
	return nil
}

func (a *Archive) applyJobEdge(st *partState, ev *bp.Event) error {
	wf, err := a.wfRow(st, ev)
	if err != nil {
		return err
	}
	_, err = st.w.InsertOwned(TJobEdge, relstore.Row{
		"wf_id":              wf.box,
		"parent_exec_job_id": ev.Get("parent.job.id"),
		"child_exec_job_id":  ev.Get("child.job.id"),
	})
	return ignoreDuplicate(err)
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
	task, ok := st.taskIDs[jobKey{wf.id, taskID}]
	if !ok {
		// The cache misses only when task.info was dropped as a duplicate
		// (restart replay); resolve through the unique index once and
		// remember the row.
		row, err := a.store.SelectOne(relstore.Query{
			Table: TTask,
			Conds: []relstore.Cond{relstore.Eq("wf_id", wf.id), relstore.Eq("abs_task_id", taskID)},
		})
		if err != nil {
			return err
		}
		if row == nil {
			return fmt.Errorf("map.task_job references unknown task %q", taskID)
		}
		task = row.ID()
		st.taskIDs[jobKey{wf.id, taskID}] = task
	}
	return st.w.Update(TTask, task, relstore.Row{"job_id": jobRow.box})
}

func (a *Archive) applyMapSubwfJob(st *partState, ev *bp.Event) error {
	is, err := a.instRow(st, ev)
	if err != nil {
		return err
	}
	return st.w.Update(TJobInstance, is.id, relstore.Row{"subwf_uuid": ev.Get(schema.AttrSubwfID)})
}

// jobRow resolves (wf row, exec job id) to the job table row, creating a
// placeholder when job.info has not been seen yet.
func (a *Archive) jobRow(st *partState, wf boxed, execID string) (boxed, error) {
	if execID == "" {
		return boxed{}, errors.New("event lacks job.id")
	}
	k := jobKey{wf.id, execID}
	if b, ok := st.jobIDs[k]; ok {
		return b, nil
	}
	id, err := st.w.InsertOwned(TJob, relstore.Row{"wf_id": wf.box, "exec_job_id": execID})
	if err != nil {
		return boxed{}, err
	}
	b := boxed{id, id}
	st.jobIDs[k] = b
	return b, nil
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
	seq, err := ev.Int(schema.AttrJobInstID)
	if err != nil {
		return nil, err
	}
	k := instKey{jobRow.id, seq}
	if is, ok := st.insts[k]; ok {
		return is, nil
	}
	id, err := st.w.InsertOwned(TJobInstance, relstore.Row{
		"job_id":         jobRow.box,
		"job_submit_seq": seq,
	})
	if err != nil {
		return nil, err
	}
	is := &instState{id: id, box: id}
	st.insts[k] = is
	return is, nil
}

func (a *Archive) applyJobState(st *partState, ev *bp.Event, state any) error {
	is, err := a.instRow(st, ev)
	if err != nil {
		return err
	}
	return a.insertJobState(st, is, state, ev)
}

// insertJobState is the hottest archive write: every lifecycle event of
// every job instance lands here. state is any (not string) so the JS*
// constants box statically at the call sites — see applyWorkflowState —
// and the instance id goes in pre-boxed from the instState.
func (a *Archive) insertJobState(st *partState, is *instState, state any, ev *bp.Event) error {
	seq := is.stateSeq
	is.stateSeq = seq + 1
	_, err := st.w.InsertOwned(TJobState, relstore.Row{
		"job_instance_id":     is.box,
		"state":               state,
		"timestamp":           ev.TS,
		"jobstate_submit_seq": seq,
	})
	return err
}

func (a *Archive) applyScriptEnd(st *partState, ev *bp.Event, okState, failState any) error {
	is, err := a.instRow(st, ev)
	if err != nil {
		return err
	}
	state := okState
	if code, ok := intAttr(ev, schema.AttrExitcode); ok && code != 0 {
		state = failState
	}
	return a.insertJobState(st, is, state, ev)
}

func (a *Archive) applyMainStart(st *partState, ev *bp.Event) error {
	is, err := a.instRow(st, ev)
	if err != nil {
		return err
	}
	changes := relstore.Row{}
	if f := ev.Get("stdout.file"); f != "" {
		changes["stdout_file"] = f
	}
	if f := ev.Get("stderr.file"); f != "" {
		changes["stderr_file"] = f
	}
	if len(changes) > 0 {
		if err := st.w.Update(TJobInstance, is.id, changes); err != nil {
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
	exitcode, err := ev.Int(schema.AttrExitcode)
	if err != nil {
		return err
	}
	changes := relstore.Row{"exitcode": exitcode}
	if s := ev.Get(schema.AttrSite); s != "" {
		changes["site"] = s
	}
	if u := ev.Get("user"); u != "" {
		changes["user"] = u
	}
	if s := ev.Get(schema.AttrStdoutText); s != "" {
		changes["stdout_text"] = s
	}
	if s := ev.Get(schema.AttrStderrText); s != "" {
		changes["stderr_text"] = s
	}
	if m, ok := intAttr(ev, "multiplier_factor"); ok {
		changes["multiplier_factor"] = m
	}
	// local_duration = main.end ts - the matching EXECUTE state ts, the
	// runtime "as measured by the workflow engine" in the paper's job
	// statistics. The instance state carries the latest EXECUTE timestamp
	// (set by main.start, warmed from the jobstate table on reopen) so
	// this does not re-select the instance's state history for every
	// completing job.
	if !is.execTS.IsZero() {
		changes["local_duration"] = ev.TS.Sub(is.execTS).Seconds()
	}
	if err := st.w.Update(TJobInstance, is.id, changes); err != nil {
		return err
	}
	var state any = JSSuccess
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
	// atomic under its own lock to keep concurrent partitions from racing
	// the unique constraint.
	a.hostMu.Lock()
	hid, ok := a.hostIDs[k]
	if !ok {
		row := relstore.Row{"site": k.site, "hostname": k.hostname, "ip": k.ip}
		if u := ev.Get("uname"); u != "" {
			row["uname"] = u
		}
		if m, ok := intAttr(ev, "total_memory"); ok {
			row["total_memory"] = m
		}
		hid, err = a.host.InsertOwned(THost, row)
		if err != nil {
			a.hostMu.Unlock()
			return err
		}
		a.hostIDs[k] = hid
	}
	a.hostMu.Unlock()
	return st.w.Update(TJobInstance, is.id, relstore.Row{
		"host_id": hid,
		"site":    k.site,
	})
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
	seq, ok := intAttr(ev, schema.AttrInvID)
	if !ok {
		seq = is.invSeq
		is.invSeq = seq + 1
	}
	row := relstore.Row{
		"job_instance_id": is.box,
		"wf_id":           wf.box,
		"task_submit_seq": seq,
		"transformation":  ev.Get(schema.AttrTransform),
		"executable":      ev.Get(schema.AttrExecutable),
		"argv":            ev.Get(schema.AttrArgv),
		"abs_task_id":     ev.Get(schema.AttrTaskID),
	}
	if ts := ev.Get(schema.AttrStartTime); ts != "" {
		if parsed, err := bp.ParseTime(ts); err == nil {
			row["start_time"] = parsed
		}
	}
	if d, ok := floatAttr(ev, schema.AttrDur); ok {
		row["remote_duration"] = d
	}
	if c, ok := floatAttr(ev, schema.AttrRemoteCPU); ok {
		row["remote_cpu_time"] = c
	}
	if x, ok := intAttr(ev, schema.AttrExitcode); ok {
		row["exitcode"] = x
	}
	_, err = st.w.InsertOwned(TInvocation, row)
	return ignoreDuplicate(err)
}

// ignoreDuplicate treats a unique-constraint violation as success: static
// description events are re-emitted verbatim on workflow restarts.
func ignoreDuplicate(err error) error {
	var ue *relstore.UniqueError
	if errors.As(err, &ue) {
		return nil
	}
	return err
}
