package pegasus

import (
	"sync"
	"time"

	"repro/internal/bp"
	"repro/internal/schema"
)

// Monitord is the Pegasus log normalizer: the component that, in the real
// system, tails the DAGMan and kickstart logs and emits NetLogger events
// conforming to the Stampede schema. Here the engine feeds it directly;
// the output is the same normalized BP stream.
type Monitord struct {
	appender bp.Appender
	wfUUID   string
	hostname string
	// ParentUUID and RootUUID place this run in a workflow hierarchy;
	// both empty for a top-level run (root defaults to the run itself).
	ParentUUID string
	RootUUID   string

	mu sync.Mutex // orders appends from concurrent job goroutines
}

// NewMonitord builds a normalizer for one workflow run.
func NewMonitord(appender bp.Appender, wfUUID, submitHost string) *Monitord {
	return &Monitord{appender: appender, wfUUID: wfUUID, hostname: submitHost}
}

func (m *Monitord) append(ev *bp.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// A failed append is the appender's to report: the engine binaries'
	// appender (triana.OpenAppenders) fails the run when it is closed.
	_ = m.appender.Append(ev)
}

func (m *Monitord) ev(typ string, ts time.Time) *bp.Event {
	return bp.New(typ, ts).
		Set(schema.AttrLevel, bp.LevelInfo).
		Set(schema.AttrXwfID, m.wfUUID)
}

func (m *Monitord) ji(typ string, ts time.Time, jobID string, seq int64) *bp.Event {
	return m.ev(typ, ts).Set(schema.AttrJobID, jobID).SetInt(schema.AttrJobInstID, seq)
}

// EmitPlan records the planning event and the full static description of
// both workflows: the DAX's tasks and edges, the planned jobs and edges,
// and the many-to-many task-to-job mapping.
func (m *Monitord) EmitPlan(ew *EW, ts time.Time) {
	root := m.RootUUID
	if root == "" {
		root = m.wfUUID
	}
	plan := m.ev(schema.WfPlan, ts).
		Set("submit.hostname", m.hostname).
		Set("dax.label", ew.Label).
		Set("planner.version", "5.0-sim").
		Set(schema.AttrRootXwf, root)
	if m.ParentUUID != "" {
		plan.Set(schema.AttrParentXwf, m.ParentUUID)
	}
	m.append(plan)
	m.append(m.ev(schema.StaticStart, ts))
	for _, t := range ew.DAX.Tasks {
		m.append(m.ev(schema.TaskInfo, ts).
			Set(schema.AttrTaskID, t.ID).
			Set("type_desc", "compute").
			Set(schema.AttrTransform, t.Transformation).
			Set(schema.AttrArgv, t.Args))
	}
	for _, e := range ew.DAX.Edges {
		m.append(m.ev(schema.TaskEdge, ts).
			Set("parent.task.id", e[0]).
			Set("child.task.id", e[1]))
	}
	for _, j := range ew.Jobs {
		m.append(m.ev(schema.JobInfo, ts).
			Set(schema.AttrJobID, j.ID).
			Set("type_desc", j.TypeDesc).
			SetInt("clustered", boolToInt(j.Clustered)).
			SetInt("max_retries", int64(j.MaxRetries)).
			Set(schema.AttrExecutable, j.Executable).
			Set(schema.AttrArgv, j.Args).
			SetInt("task_count", int64(len(j.TaskIDs))))
	}
	for _, e := range ew.Edges {
		m.append(m.ev(schema.JobEdge, ts).
			Set("parent.job.id", e[0]).
			Set("child.job.id", e[1]))
	}
	for _, j := range ew.Jobs {
		for _, tid := range j.TaskIDs {
			m.append(m.ev(schema.MapTaskJob, ts).
				Set(schema.AttrTaskID, tid).
				Set(schema.AttrJobID, j.ID))
		}
	}
	m.append(m.ev(schema.StaticEnd, ts))
}

// XwfStart marks execution start.
func (m *Monitord) XwfStart(ts time.Time, restart int64) {
	m.append(m.ev(schema.XwfStart, ts).SetInt("restart_count", restart))
}

// XwfEnd marks execution end with the overall status (0 or -1).
func (m *Monitord) XwfEnd(ts time.Time, restart int64, status int64) {
	m.append(m.ev(schema.XwfEnd, ts).
		SetInt("restart_count", restart).
		SetInt(schema.AttrStatus, status))
}

// SubmitStart records a job instance being handed to the scheduler.
func (m *Monitord) SubmitStart(jobID string, seq int64, ts time.Time) {
	m.append(m.ji(schema.SubmitStart, ts, jobID, seq))
}

// Submitted records the scheduler acknowledging the submission.
func (m *Monitord) Submitted(jobID string, seq int64, ts time.Time) {
	m.append(m.ji(schema.SubmitEnd, ts, jobID, seq).SetInt(schema.AttrStatus, 0))
}

// Executing records the main job starting on a host.
func (m *Monitord) Executing(jobID string, seq int64, ts time.Time, site, hostname, ip string) {
	m.append(m.ji(schema.MainStart, ts, jobID, seq))
	m.append(m.ji(schema.HostInfo, ts, jobID, seq).
		Set(schema.AttrSite, site).
		Set(schema.AttrHostname, hostname).
		Set("ip", ip))
}

// InvocationRecord is one kickstart record for an invocation within a job
// instance.
type InvocationRecord struct {
	InvID          int64
	TaskID         string // empty for auxiliary jobs
	Transformation string
	Executable     string
	Args           string
	Start          time.Time
	DurSeconds     float64
	CPUSeconds     float64
	Exit           int64
	Hostname       string
	Site           string
}

// Invocation emits the inv.start/inv.end pair for one record.
func (m *Monitord) Invocation(jobID string, seq int64, rec InvocationRecord) {
	m.append(m.ji(schema.InvStart, rec.Start, jobID, seq).SetInt(schema.AttrInvID, rec.InvID))
	end := rec.Start.Add(time.Duration(rec.DurSeconds * float64(time.Second)))
	ev := m.ji(schema.InvEnd, end, jobID, seq).
		SetInt(schema.AttrInvID, rec.InvID).
		Set(schema.AttrStartTime, rec.Start.UTC().Format(bp.TimeFormat)).
		SetFloat(schema.AttrDur, rec.DurSeconds).
		SetInt(schema.AttrExitcode, rec.Exit).
		Set(schema.AttrTransform, rec.Transformation).
		Set(schema.AttrExecutable, rec.Executable).
		Set(schema.AttrHostname, rec.Hostname).
		Set(schema.AttrSite, rec.Site)
	if rec.CPUSeconds > 0 {
		ev.SetFloat(schema.AttrRemoteCPU, rec.CPUSeconds)
	}
	if rec.TaskID != "" {
		ev.Set(schema.AttrTaskID, rec.TaskID)
	}
	if rec.Args != "" {
		ev.Set(schema.AttrArgv, rec.Args)
	}
	m.append(ev)
}

// Terminated records the main job ending, then the DAGMan postscript
// evaluating its exit code.
func (m *Monitord) Terminated(jobID string, seq int64, ts time.Time, site string, exit int64, stderr string) {
	m.append(m.ji(schema.MainTerm, ts, jobID, seq).SetInt(schema.AttrStatus, statusOf(exit)))
	end := m.ji(schema.MainEnd, ts, jobID, seq).
		SetInt(schema.AttrStatus, statusOf(exit)).
		SetInt(schema.AttrExitcode, exit).
		Set(schema.AttrSite, site).
		SetInt("multiplier_factor", 1)
	if stderr != "" {
		end.Set(schema.AttrStderrText, stderr)
	}
	m.append(end)
	m.append(m.ji(schema.PostStart, ts, jobID, seq))
	m.append(m.ji(schema.PostEnd, ts, jobID, seq).
		SetInt(schema.AttrStatus, statusOf(exit)).
		SetInt(schema.AttrExitcode, exit))
}

// MapSubwfJob links a child run to the dax job instance that spawned it.
func (m *Monitord) MapSubwfJob(jobID string, seq int64, childUUID string, ts time.Time) {
	m.append(m.ev(schema.MapSubwfJob, ts).
		Set(schema.AttrSubwfID, childUUID).
		Set(schema.AttrJobID, jobID).
		SetInt(schema.AttrJobInstID, seq))
}

func statusOf(exit int64) int64 {
	if exit == 0 {
		return 0
	}
	return -1
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
