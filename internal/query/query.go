// Package query implements the Stampede query interface: the standard
// API for extracting workflow, job and invocation information from the
// relational archive (the third layer of the paper's three-layer model).
// The statistics, analyzer, anomaly-detection and dashboard tools all go
// through this package rather than touching tables directly.
package query

import (
	"fmt"
	"time"

	"repro/internal/archive"
	"repro/internal/relstore"
)

// QI is a query interface over one archive store. It reads through a
// relstore.Reader, which is either the live store (each call sees the
// newest data) or a pinned point-in-time snapshot (every call sees the
// same consistent state); see Snapshot.
type QI struct {
	r     relstore.Reader
	store *relstore.Store  // non-nil when r is the live store; enables Snapshot
	c     *archive.Columns // the store's column handles, which rows are read through
}

// New returns a query interface over the archive.
func New(a *archive.Archive) *QI { return &QI{r: a.Store(), store: a.Store(), c: a.Columns()} }

// Store returns the live store backing this QI, or nil when the QI is
// pinned to a snapshot. The dashboard uses it for store-level status
// (partition count, checkpoint ages) that has no place in the row model.
func (q *QI) Store() *relstore.Store { return q.store }

// Snapshot returns a QI pinned to a point-in-time snapshot of the
// underlying store plus a release func. Every read through the pinned QI
// sees one consistent state: a cross-table traversal (workflow → jobs →
// invocations) cannot observe a torn mid-load prefix even while the
// loader streams events in. On a QI that is already pinned, Snapshot
// returns the QI itself with a no-op release, so report code can pin
// unconditionally and compose.
func (q *QI) Snapshot() (*QI, func()) {
	if q.store == nil {
		return q, func() {}
	}
	sn := q.store.Snapshot()
	return &QI{r: sn, c: q.c}, sn.Close
}

// Workflow is one workflow run.
type Workflow struct {
	ID         int64
	UUID       string
	DaxLabel   string
	SubmitHost string
	User       string
	Timestamp  time.Time
	RootUUID   string
	ParentID   int64 // 0 for root workflows
}

// StateRecord is one timestamped state of a workflow or job instance.
type StateRecord struct {
	State     string
	Timestamp time.Time
	Status    int64
	HasStatus bool
}

// Job is one executable-workflow node.
type Job struct {
	ID        int64
	WfID      int64
	ExecJobID string
	TypeDesc  string
	Clustered bool
	TaskCount int64
	Exec      string
}

// JobInstance is one scheduled attempt of a job.
type JobInstance struct {
	ID            int64
	JobID         int64
	SubmitSeq     int64
	Site          string
	Hostname      string
	SubwfUUID     string
	Exitcode      int64
	HasExitcode   bool
	LocalDuration float64
	StdoutText    string
	StderrText    string
	StdoutFile    string
	StderrFile    string
}

// Invocation is one executable invocation on a resource.
type Invocation struct {
	ID             int64
	JobInstanceID  int64
	WfID           int64
	TaskSubmitSeq  int64
	StartTime      time.Time
	RemoteDuration float64
	RemoteCPUTime  float64
	HasCPUTime     bool
	Exitcode       int64
	Transformation string
	AbsTaskID      string
}

// Task is one abstract-workflow node.
type Task struct {
	ID             int64
	WfID           int64
	AbsTaskID      string
	TypeDesc       string
	Transformation string
	JobID          int64 // 0 when unmapped
}

func (q *QI) wfFromRow(r *relstore.Row) Workflow {
	c := &q.c.Workflow
	return Workflow{
		ID:         r.ID(),
		UUID:       r.Str(c.UUID),
		DaxLabel:   r.Str(c.DaxLabel),
		SubmitHost: r.Str(c.SubmitHostname),
		User:       r.Str(c.User),
		Timestamp:  r.Time(c.Timestamp),
		RootUUID:   r.Str(c.RootUUID),
		ParentID:   r.Int(c.ParentID),
	}
}

func (q *QI) wfsFromRows(rows []*relstore.Row) []Workflow {
	out := make([]Workflow, len(rows))
	for i, r := range rows {
		out[i] = q.wfFromRow(r)
	}
	return out
}

// Workflows lists every workflow in the archive in insertion order.
func (q *QI) Workflows() ([]Workflow, error) {
	rows, err := q.r.Select(relstore.Query{Table: archive.TWorkflow})
	if err != nil {
		return nil, err
	}
	return q.wfsFromRows(rows), nil
}

// WorkflowByUUID resolves one workflow; nil when absent.
func (q *QI) WorkflowByUUID(uuid string) (*Workflow, error) {
	r, err := q.r.SelectOne(relstore.Query{
		Table: archive.TWorkflow,
		Conds: []relstore.Cond{relstore.Eq("wf_uuid", uuid)},
	})
	if err != nil || r == nil {
		return nil, err
	}
	w := q.wfFromRow(r)
	return &w, nil
}

// Workflow resolves one workflow by row id; error when absent.
func (q *QI) Workflow(id int64) (*Workflow, error) {
	r, err := q.r.Get(archive.TWorkflow, id)
	if err != nil {
		return nil, err
	}
	if r == nil {
		return nil, fmt.Errorf("query: no workflow %d", id)
	}
	w := q.wfFromRow(r)
	return &w, nil
}

// RootWorkflows lists workflows without a parent. It scans: Eq(col, nil)
// through the parent index would walk every row that was ever a root.
func (q *QI) RootWorkflows() ([]Workflow, error) {
	parent := q.c.Workflow.ParentID
	rows, err := q.r.Select(relstore.Query{
		Table: archive.TWorkflow,
		Where: func(r *relstore.Row) bool { return r.IsNull(parent) },
	})
	if err != nil {
		return nil, err
	}
	return q.wfsFromRows(rows), nil
}

// SubWorkflows lists direct children of a workflow.
func (q *QI) SubWorkflows(parentID int64) ([]Workflow, error) {
	rows, err := q.r.Select(relstore.Query{
		Table: archive.TWorkflow,
		Conds: []relstore.Cond{relstore.Eq("parent_wf_id", parentID)},
	})
	if err != nil {
		return nil, err
	}
	return q.wfsFromRows(rows), nil
}

// Descendants returns the workflow hierarchy rooted at id (excluding the
// root itself), breadth first — how the analyzer drills down. The whole
// walk runs against one snapshot, so the hierarchy is a consistent
// point-in-time tree even while sub-workflow rows stream in.
func (q *QI) Descendants(id int64) ([]Workflow, error) {
	q, done := q.Snapshot()
	defer done()
	var out []Workflow
	frontier := []int64{id}
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, p := range frontier {
			children, err := q.SubWorkflows(p)
			if err != nil {
				return nil, err
			}
			for _, c := range children {
				out = append(out, c)
				next = append(next, c.ID)
			}
		}
		frontier = next
	}
	return out, nil
}

// statesFromRows reads workflowstate or jobstate rows; status is the
// former's status column (jobstate has none and passes nil).
func statesFromRows(rows []*relstore.Row, state, ts relstore.Col, status *relstore.Col) []StateRecord {
	out := make([]StateRecord, len(rows))
	for i, r := range rows {
		out[i] = StateRecord{State: r.Str(state), Timestamp: r.Time(ts)}
		if status != nil && !r.IsNull(*status) {
			out[i].Status = r.Int(*status)
			out[i].HasStatus = true
		}
	}
	return out
}

// WorkflowStates returns a workflow's state timeline in time order.
func (q *QI) WorkflowStates(wfID int64) ([]StateRecord, error) {
	rows, err := q.r.Select(relstore.Query{
		Table:   archive.TWorkflowState,
		Conds:   []relstore.Cond{relstore.Eq("wf_id", wfID)},
		OrderBy: "timestamp",
	})
	if err != nil {
		return nil, err
	}
	c := &q.c.WorkflowState
	return statesFromRows(rows, c.State, c.Timestamp, &c.Status), nil
}

// Walltime returns the workflow wall time: last termination minus first
// start, as reported by the workflow engine. Running workflows (no
// termination yet) report the time to the latest recorded state.
func (q *QI) Walltime(wfID int64) (time.Duration, error) {
	states, err := q.WorkflowStates(wfID)
	if err != nil {
		return 0, err
	}
	if len(states) == 0 {
		return 0, nil
	}
	var start, end time.Time
	for _, s := range states {
		if s.State == archive.WFStateStarted && (start.IsZero() || s.Timestamp.Before(start)) {
			start = s.Timestamp
		}
		if s.Timestamp.After(end) {
			end = s.Timestamp
		}
	}
	if start.IsZero() {
		return 0, nil
	}
	return end.Sub(start), nil
}

// Tasks lists a workflow's abstract tasks.
func (q *QI) Tasks(wfID int64) ([]Task, error) {
	rows, err := q.r.Select(relstore.Query{
		Table: archive.TTask,
		Conds: []relstore.Cond{relstore.Eq("wf_id", wfID)},
	})
	if err != nil {
		return nil, err
	}
	c := &q.c.Task
	out := make([]Task, len(rows))
	for i, r := range rows {
		out[i] = Task{
			ID:             r.ID(),
			WfID:           wfID,
			AbsTaskID:      r.Str(c.AbsTaskID),
			TypeDesc:       r.Str(c.TypeDesc),
			Transformation: r.Str(c.Transformation),
			JobID:          r.Int(c.JobID),
		}
	}
	return out, nil
}

// Jobs lists a workflow's executable jobs.
func (q *QI) Jobs(wfID int64) ([]Job, error) {
	rows, err := q.r.Select(relstore.Query{
		Table: archive.TJob,
		Conds: []relstore.Cond{relstore.Eq("wf_id", wfID)},
	})
	if err != nil {
		return nil, err
	}
	c := &q.c.Job
	out := make([]Job, len(rows))
	for i, r := range rows {
		out[i] = Job{
			ID:        r.ID(),
			WfID:      wfID,
			ExecJobID: r.Str(c.ExecJobID),
			TypeDesc:  r.Str(c.TypeDesc),
			Clustered: r.Bool(c.Clustered),
			TaskCount: r.Int(c.TaskCount),
			Exec:      r.Str(c.Executable),
		}
	}
	return out, nil
}

func (q *QI) instFromRow(r *relstore.Row) JobInstance {
	c := &q.c.JobInstance
	inst := JobInstance{
		ID:            r.ID(),
		JobID:         r.Int(c.JobID),
		SubmitSeq:     r.Int(c.SubmitSeq),
		Site:          r.Str(c.Site),
		SubwfUUID:     r.Str(c.SubwfUUID),
		LocalDuration: r.Float(c.LocalDuration),
		StdoutText:    r.Str(c.StdoutText),
		StderrText:    r.Str(c.StderrText),
		StdoutFile:    r.Str(c.StdoutFile),
		StderrFile:    r.Str(c.StderrFile),
		Exitcode:      r.Int(c.Exitcode),
		HasExitcode:   !r.IsNull(c.Exitcode),
	}
	if !r.IsNull(c.HostID) {
		if h, err := q.r.Get(archive.THost, r.Int(c.HostID)); err == nil && h != nil {
			inst.Hostname = h.Str(q.c.Host.Hostname)
		}
	}
	return inst
}

// JobInstances lists every attempt of one job, in submit-sequence order.
// The instance rows and the host rows they reference resolve against one
// snapshot.
func (q *QI) JobInstances(jobID int64) ([]JobInstance, error) {
	q, done := q.Snapshot()
	defer done()
	rows, err := q.r.Select(relstore.Query{
		Table:   archive.TJobInstance,
		Conds:   []relstore.Cond{relstore.Eq("job_id", jobID)},
		OrderBy: "job_submit_seq",
	})
	if err != nil {
		return nil, err
	}
	out := make([]JobInstance, len(rows))
	for i, r := range rows {
		out[i] = q.instFromRow(r)
	}
	return out, nil
}

// JobStates returns a job instance's state timeline in sequence order.
func (q *QI) JobStates(instanceID int64) ([]StateRecord, error) {
	rows, err := q.r.Select(relstore.Query{
		Table:   archive.TJobState,
		Conds:   []relstore.Cond{relstore.Eq("job_instance_id", instanceID)},
		OrderBy: "jobstate_submit_seq",
	})
	if err != nil {
		return nil, err
	}
	return statesFromRows(rows, q.c.JobState.State, q.c.JobState.Timestamp, nil), nil
}

// Invocations lists every invocation of a workflow.
func (q *QI) Invocations(wfID int64) ([]Invocation, error) {
	rows, err := q.r.Select(relstore.Query{
		Table: archive.TInvocation,
		Conds: []relstore.Cond{relstore.Eq("wf_id", wfID)},
	})
	if err != nil {
		return nil, err
	}
	out := make([]Invocation, len(rows))
	for i, r := range rows {
		out[i] = q.invFromRow(r)
	}
	return out, nil
}

// InvocationsForInstance lists the invocations of one job instance.
func (q *QI) InvocationsForInstance(instanceID int64) ([]Invocation, error) {
	rows, err := q.r.Select(relstore.Query{
		Table:   archive.TInvocation,
		Conds:   []relstore.Cond{relstore.Eq("job_instance_id", instanceID)},
		OrderBy: "task_submit_seq",
	})
	if err != nil {
		return nil, err
	}
	out := make([]Invocation, len(rows))
	for i, r := range rows {
		out[i] = q.invFromRow(r)
	}
	return out, nil
}

func (q *QI) invFromRow(r *relstore.Row) Invocation {
	c := &q.c.Invocation
	return Invocation{
		ID:             r.ID(),
		JobInstanceID:  r.Int(c.JobInstanceID),
		WfID:           r.Int(c.WfID),
		TaskSubmitSeq:  r.Int(c.TaskSubmitSeq),
		StartTime:      r.Time(c.StartTime),
		RemoteDuration: r.Float(c.RemoteDuration),
		RemoteCPUTime:  r.Float(c.RemoteCPUTime),
		HasCPUTime:     !r.IsNull(c.RemoteCPUTime),
		Exitcode:       r.Int(c.Exitcode),
		Transformation: r.Str(c.Transformation),
		AbsTaskID:      r.Str(c.AbsTaskID),
	}
}

// Delays decomposes where a job instance spent its time, the per-job
// metrics the paper's jobs.txt reports (queue time, runtime).
type Delays struct {
	// QueueTime is SUBMIT -> EXECUTE: time in the remote queue.
	QueueTime time.Duration
	// Runtime is EXECUTE -> terminal state, the engine-measured runtime.
	Runtime time.Duration
	// HeldTime totals JOB_HELD -> JOB_RELEASED intervals.
	HeldTime time.Duration
}

// InstanceDelays computes the delay decomposition for one job instance
// from its state timeline.
func (q *QI) InstanceDelays(instanceID int64) (Delays, error) {
	states, err := q.JobStates(instanceID)
	if err != nil {
		return Delays{}, err
	}
	var d Delays
	var submitAt, execAt, heldAt time.Time
	for _, s := range states {
		switch s.State {
		case archive.JSSubmit:
			if submitAt.IsZero() {
				submitAt = s.Timestamp
			}
		case archive.JSExecute:
			if execAt.IsZero() {
				execAt = s.Timestamp
				if !submitAt.IsZero() {
					d.QueueTime = execAt.Sub(submitAt)
				}
			}
		case archive.JSHeld:
			heldAt = s.Timestamp
		case archive.JSReleased:
			if !heldAt.IsZero() {
				d.HeldTime += s.Timestamp.Sub(heldAt)
				heldAt = time.Time{}
			}
		case archive.JSSuccess, archive.JSFailure, archive.JSAborted:
			if !execAt.IsZero() {
				d.Runtime = s.Timestamp.Sub(execAt)
			}
		}
	}
	return d, nil
}
