package triana

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bp"
	"repro/internal/schema"
)

// StampedeLog listens for Triana execution events and converts them to
// Stampede events, implementing the paper's §V-B mapping:
//
//   - graph RUNNING        -> wf.plan, static block (task/job/edge infos,
//     1:1 task-to-job mappings), xwf.start
//   - task WOKEN           -> job_inst.submit.start / submit.end
//   - task RUNNING         -> job_inst.main.start + host.info (first time),
//     inv.start (every invocation)
//   - task COMPLETE (inv)  -> inv.end exit 0
//   - task ERROR (inv)     -> inv.end exit -1
//   - task terminal        -> job_inst.main.term + main.end (exit 0 or -1)
//   - task SUSPENDED       -> job_inst.abort.info (when it had started)
//   - graph terminal       -> xwf.end
//
// Because Triana has no planning stage, tasks map 1:1 onto jobs; the
// StampedeLog itself fabricates the schema-compliance events (mappings,
// job descriptions) that have no direct Triana counterpart.
type StampedeLog struct {
	appender bp.Appender

	// ParentUUID and RootUUID wire sub-workflows into the hierarchy. Both
	// empty for a top-level workflow (root becomes the run itself).
	ParentUUID string
	RootUUID   string
	// Site and Hostname identify where the run executes.
	Site     string
	Hostname string

	mu       sync.Mutex
	wfUUID   string
	started  map[string]time.Time // task -> main.start time
	invStart map[string]time.Time // task#inv -> inv.start time
	ended    map[string]bool      // task -> main.end emitted
	appended int
}

// NewStampedeLog builds the listener. Register it on the scheduler through
// Options.Listeners.
func NewStampedeLog(appender bp.Appender) *StampedeLog {
	return &StampedeLog{
		appender: appender,
		Site:     "local",
		Hostname: "localhost",
		started:  map[string]time.Time{},
		invStart: map[string]time.Time{},
		ended:    map[string]bool{},
	}
}

// Appended returns the number of events successfully handed to the
// appender.
func (l *StampedeLog) Appended() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// WorkflowUUID returns the run's executable-workflow id once the run has
// started ("" before).
func (l *StampedeLog) WorkflowUUID() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wfUUID
}

// append hands ev to the appender, counting it when accepted. A failed
// append is the appender's to report: the engine binaries' appender
// (OpenAppenders) fails the run when it is closed.
func (l *StampedeLog) append(ev *bp.Event) {
	if l.appender.Append(ev) == nil {
		l.appended++
	}
}

func (l *StampedeLog) newEvent(typ string, ts time.Time) *bp.Event {
	return bp.New(typ, ts).
		Set(schema.AttrLevel, bp.LevelInfo).
		Set(schema.AttrXwfID, l.wfUUID)
}

func (l *StampedeLog) jiEvent(typ string, ts time.Time, task string) *bp.Event {
	// Triana has no retries: every job has exactly one instance.
	return l.newEvent(typ, ts).Set(schema.AttrJobID, task).SetInt(schema.AttrJobInstID, 1)
}

// OnEvent implements Listener.
func (l *StampedeLog) OnEvent(ev ExecutionEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ev.Task == nil {
		l.onGraphEvent(ev)
		return
	}
	l.onTaskEvent(ev)
}

func (l *StampedeLog) onGraphEvent(ev ExecutionEvent) {
	switch ev.New {
	case Running:
		l.wfUUID = ev.Graph.RunUUID
		l.emitPlanning(ev)
		l.append(l.newEvent(schema.XwfStart, ev.Time).SetInt("restart_count", 0))
	case Complete:
		l.append(l.newEvent(schema.XwfEnd, ev.Time).
			SetInt("restart_count", 0).SetInt(schema.AttrStatus, 0))
	case Error, Suspended:
		if l.wfUUID == "" {
			return
		}
		l.append(l.newEvent(schema.XwfEnd, ev.Time).
			SetInt("restart_count", 0).SetInt(schema.AttrStatus, -1))
	}
}

// emitPlanning records the workflow "planning" block: the Task, Edge and
// Job descriptions defined by Stampede, immediately before the task graph
// starts running.
func (l *StampedeLog) emitPlanning(ev ExecutionEvent) {
	ts := ev.Time
	root := l.RootUUID
	if root == "" {
		root = l.wfUUID
	}
	plan := l.newEvent(schema.WfPlan, ts).
		Set("submit.hostname", l.Hostname).
		Set("dax.label", ev.Graph.Name).
		Set(schema.AttrRootXwf, root)
	if l.ParentUUID != "" {
		plan.Set(schema.AttrParentXwf, l.ParentUUID)
	}
	l.append(plan)
	l.append(l.newEvent(schema.StaticStart, ts))
	for _, t := range ev.Graph.Tasks() {
		typeDesc := "unit"
		if td, ok := t.Unit.(TypeDesc); ok {
			typeDesc = td.TypeDesc()
		}
		l.append(l.newEvent(schema.TaskInfo, ts).
			Set(schema.AttrTaskID, t.Name).
			Set("type_desc", typeDesc).
			Set(schema.AttrTransform, t.Unit.Name()))
		l.append(l.newEvent(schema.JobInfo, ts).
			Set(schema.AttrJobID, t.Name).
			Set("type_desc", typeDesc).
			SetInt("clustered", 0).
			SetInt("max_retries", 0).
			Set(schema.AttrExecutable, t.Unit.Name()).
			SetInt("task_count", 1))
		// No planning stage: a one-to-one task-to-job mapping.
		l.append(l.newEvent(schema.MapTaskJob, ts).
			Set(schema.AttrTaskID, t.Name).
			Set(schema.AttrJobID, t.Name))
	}
	for _, c := range ev.Graph.Cables() {
		l.append(l.newEvent(schema.TaskEdge, ts).
			Set("parent.task.id", c.From.Name).
			Set("child.task.id", c.To.Name))
		l.append(l.newEvent(schema.JobEdge, ts).
			Set("parent.job.id", c.From.Name).
			Set("child.job.id", c.To.Name))
	}
	l.append(l.newEvent(schema.StaticEnd, ts))
}

func invKey(task string, inv int) string { return fmt.Sprintf("%s#%d", task, inv) }

func (l *StampedeLog) onTaskEvent(ev ExecutionEvent) {
	name := ev.Task.Name
	switch ev.New {
	case Woken:
		// Only the first WOKEN is a submission; continuous-mode tasks
		// return to WOKEN between invocations.
		if _, submitted := l.started[name]; !submitted && !l.ended[name] {
			if !l.ended["submit#"+name] {
				l.ended["submit#"+name] = true
				l.append(l.jiEvent(schema.SubmitStart, ev.Time, name))
				l.append(l.jiEvent(schema.SubmitEnd, ev.Time, name).SetInt(schema.AttrStatus, 0))
			}
		}
	case Running:
		if ev.Invocation <= 0 {
			return
		}
		if _, ok := l.started[name]; !ok {
			l.started[name] = ev.Time
			l.append(l.jiEvent(schema.MainStart, ev.Time, name))
			l.append(l.jiEvent(schema.HostInfo, ev.Time, name).
				Set(schema.AttrSite, l.Site).
				Set(schema.AttrHostname, l.Hostname).
				Set("ip", "127.0.0.1"))
		}
		l.invStart[invKey(name, ev.Invocation)] = ev.Time
		l.append(l.jiEvent(schema.InvStart, ev.Time, name).SetInt(schema.AttrInvID, int64(ev.Invocation)))
	case Complete:
		if ev.Invocation > 0 {
			l.emitInvEnd(ev, 0)
		}
		if ev.Terminal && !l.ended[name] {
			// Terminal completion: close out the job instance. In
			// single-step mode this fires on the same event as the
			// invocation end.
			if _, ranAtAll := l.started[name]; ranAtAll {
				l.ended[name] = true
				l.append(l.jiEvent(schema.MainTerm, ev.Time, name).SetInt(schema.AttrStatus, 0))
				l.append(l.jiEvent(schema.MainEnd, ev.Time, name).
					SetInt(schema.AttrStatus, 0).
					SetInt(schema.AttrExitcode, 0).
					Set(schema.AttrSite, l.Site))
			}
		}
	case Error:
		if ev.Invocation > 0 {
			l.emitInvEnd(ev, -1)
		}
		if !l.ended[name] {
			l.ended[name] = true
			stderr := ""
			if ev.Err != nil {
				stderr = ev.Err.Error()
			}
			l.append(l.jiEvent(schema.MainTerm, ev.Time, name).SetInt(schema.AttrStatus, -1))
			l.append(l.jiEvent(schema.MainEnd, ev.Time, name).
				SetInt(schema.AttrStatus, -1).
				SetInt(schema.AttrExitcode, -1).
				Set(schema.AttrSite, l.Site).
				Set(schema.AttrStderrText, stderr))
		}
	case Suspended:
		if _, ranAtAll := l.started[name]; ranAtAll && !l.ended[name] {
			l.ended[name] = true
			l.append(l.jiEvent(schema.AbortInfo, ev.Time, name))
		}
	}
}

func (l *StampedeLog) emitInvEnd(ev ExecutionEvent, exit int64) {
	name := ev.Task.Name
	key := invKey(name, ev.Invocation)
	start, ok := l.invStart[key]
	if !ok {
		start = ev.Time
	}
	delete(l.invStart, key)
	dur := ev.Time.Sub(start).Seconds()
	l.append(l.jiEvent(schema.InvEnd, ev.Time, name).
		SetInt(schema.AttrInvID, int64(ev.Invocation)).
		Set(schema.AttrStartTime, start.UTC().Format(bp.TimeFormat)).
		SetFloat(schema.AttrDur, dur).
		SetInt(schema.AttrExitcode, exit).
		Set(schema.AttrTransform, ev.Task.Unit.Name()).
		Set(schema.AttrTaskID, name).
		Set(schema.AttrHostname, l.Hostname).
		Set(schema.AttrSite, l.Site))
}

// MapSubWorkflow emits the xwf.map.subwf_job event associating a child
// run with the parent job that spawned it. Sub-workflow units call this
// once the child's run UUID exists.
func (l *StampedeLog) MapSubWorkflow(jobName, childUUID string, ts time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.append(l.newEvent(schema.MapSubwfJob, ts).
		Set(schema.AttrSubwfID, childUUID).
		Set(schema.AttrJobID, jobName).
		SetInt(schema.AttrJobInstID, 1))
}
