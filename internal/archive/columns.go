package archive

import (
	"fmt"
	"strings"

	"repro/internal/relstore"
)

// Columns is every Figure 3 table's layout and a handle for each of its
// columns, resolved by name once against one store. The archive writes
// rows through them and the query layer and the views' rebuild read rows
// through them, so nothing on either path hashes a column name per row.
// Handles are only good for rows of the store they were resolved against.
type Columns struct {
	Workflow struct {
		Layout *relstore.Layout
		UUID, DaxLabel, DaxVersion, DaxFile, DagFileName, Timestamp, SubmitHostname, SubmitDir,
		PlannerArguments, User, PlannerVersion, RootUUID, ParentID relstore.Col
	}
	WorkflowState struct {
		Layout                                       *relstore.Layout
		WfID, State, Timestamp, RestartCount, Status relstore.Col
	}
	Host struct {
		Layout                                 *relstore.Layout
		Site, Hostname, IP, Uname, TotalMemory relstore.Col
	}
	Task struct {
		Layout                                                 *relstore.Layout
		WfID, AbsTaskID, TypeDesc, Transformation, Argv, JobID relstore.Col
	}
	TaskEdge struct {
		Layout              *relstore.Layout
		WfID, Parent, Child relstore.Col
	}
	Job struct {
		Layout                                                                        *relstore.Layout
		WfID, ExecJobID, TypeDesc, Clustered, MaxRetries, Executable, Argv, TaskCount relstore.Col
	}
	JobEdge struct {
		Layout              *relstore.Layout
		WfID, Parent, Child relstore.Col
	}
	JobInstance struct {
		Layout *relstore.Layout
		JobID, SubmitSeq, HostID, Site, User, SubwfUUID, StdoutFile, StdoutText, StderrFile, StderrText,
		MultiplierFactor, Exitcode, LocalDuration relstore.Col
	}
	JobState struct {
		Layout                                     *relstore.Layout
		JobInstanceID, State, Timestamp, SubmitSeq relstore.Col
	}
	Invocation struct {
		Layout *relstore.Layout
		JobInstanceID, WfID, TaskSubmitSeq, StartTime, RemoteDuration, RemoteCPUTime, Exitcode,
		Transformation, Executable, Argv, AbsTaskID relstore.Col
	}
}

// ResolveColumns resolves the Figure 3 columns against the store behind r
// (a store or a snapshot of it). It fails when a table or column is
// missing, or when a table has a column this file does not bind.
func ResolveColumns(r relstore.Reader) (*Columns, error) {
	c := new(Columns)
	var err error
	// bind resolves names, in order, into cols: the two lists of each call
	// below read side by side.
	bind := func(table string, lay **relstore.Layout, names string, cols ...*relstore.Col) {
		l := r.Layout(table)
		fields := strings.Fields(names)
		switch {
		case err != nil:
		case l == nil:
			err = fmt.Errorf("archive: store has no table %s", table)
		case len(fields) != len(cols) || len(fields) != len(l.Columns()):
			err = fmt.Errorf("archive: table %s has %d columns, Columns binds %d of %d names", table, len(l.Columns()), len(cols), len(fields))
		default:
			*lay = l
			for i, name := range fields {
				if *cols[i], err = l.Col(name); err != nil {
					return
				}
			}
		}
	}
	wf, ws, h, t, te := &c.Workflow, &c.WorkflowState, &c.Host, &c.Task, &c.TaskEdge
	j, je, ji, js, inv := &c.Job, &c.JobEdge, &c.JobInstance, &c.JobState, &c.Invocation
	bind(TWorkflow, &wf.Layout,
		"wf_uuid dax_label dax_version dax_file dag_file_name timestamp submit_hostname submit_dir planner_arguments user planner_version root_wf_uuid parent_wf_id",
		&wf.UUID, &wf.DaxLabel, &wf.DaxVersion, &wf.DaxFile, &wf.DagFileName, &wf.Timestamp, &wf.SubmitHostname, &wf.SubmitDir,
		&wf.PlannerArguments, &wf.User, &wf.PlannerVersion, &wf.RootUUID, &wf.ParentID)
	bind(TWorkflowState, &ws.Layout, "wf_id state timestamp restart_count status",
		&ws.WfID, &ws.State, &ws.Timestamp, &ws.RestartCount, &ws.Status)
	bind(THost, &h.Layout, "site hostname ip uname total_memory",
		&h.Site, &h.Hostname, &h.IP, &h.Uname, &h.TotalMemory)
	bind(TTask, &t.Layout, "wf_id abs_task_id type_desc transformation argv job_id",
		&t.WfID, &t.AbsTaskID, &t.TypeDesc, &t.Transformation, &t.Argv, &t.JobID)
	bind(TTaskEdge, &te.Layout, "wf_id parent_abs_task_id child_abs_task_id", &te.WfID, &te.Parent, &te.Child)
	bind(TJob, &j.Layout, "wf_id exec_job_id type_desc clustered max_retries executable argv task_count",
		&j.WfID, &j.ExecJobID, &j.TypeDesc, &j.Clustered, &j.MaxRetries, &j.Executable, &j.Argv, &j.TaskCount)
	bind(TJobEdge, &je.Layout, "wf_id parent_exec_job_id child_exec_job_id", &je.WfID, &je.Parent, &je.Child)
	bind(TJobInstance, &ji.Layout,
		"job_id job_submit_seq host_id site user subwf_uuid stdout_file stdout_text stderr_file stderr_text multiplier_factor exitcode local_duration",
		&ji.JobID, &ji.SubmitSeq, &ji.HostID, &ji.Site, &ji.User, &ji.SubwfUUID, &ji.StdoutFile, &ji.StdoutText, &ji.StderrFile, &ji.StderrText,
		&ji.MultiplierFactor, &ji.Exitcode, &ji.LocalDuration)
	bind(TJobState, &js.Layout, "job_instance_id state timestamp jobstate_submit_seq",
		&js.JobInstanceID, &js.State, &js.Timestamp, &js.SubmitSeq)
	bind(TInvocation, &inv.Layout,
		"job_instance_id wf_id task_submit_seq start_time remote_duration remote_cpu_time exitcode transformation executable argv abs_task_id",
		&inv.JobInstanceID, &inv.WfID, &inv.TaskSubmitSeq, &inv.StartTime, &inv.RemoteDuration, &inv.RemoteCPUTime, &inv.Exitcode,
		&inv.Transformation, &inv.Executable, &inv.Argv, &inv.AbsTaskID)
	if err != nil {
		return nil, err
	}
	return c, nil
}
