// Package archive implements the Stampede relational archive: the
// paper's Figure 3 schema (workflow, workflowstate, task, task_edge, job,
// job_edge, job_instance, jobstate, invocation, host) on top of the
// relstore embedded database, plus the logic that folds a stream of
// schema-valid BP events into those tables — the role the
// stampede_loader database module plays in the published system.
package archive

import "repro/internal/relstore"

// Table names, matching Figure 3.
const (
	TWorkflow      = "workflow"
	TWorkflowState = "workflowstate"
	TTask          = "task"
	TTaskEdge      = "task_edge"
	TJob           = "job"
	TJobEdge       = "job_edge"
	TJobInstance   = "job_instance"
	TJobState      = "jobstate"
	TInvocation    = "invocation"
	THost          = "host"
)

// Workflow states recorded in workflowstate.
const (
	WFStateStarted    = "WORKFLOW_STARTED"
	WFStateTerminated = "WORKFLOW_TERMINATED"
)

// Job states recorded in jobstate, in the vocabulary stampede_statistics
// and the analyzer use (SUBMIT, EXECUTE, JOB_SUCCESS, ...).
const (
	JSSubmit      = "SUBMIT"
	JSSubmitted   = "SUBMITTED"
	JSHeld        = "JOB_HELD"
	JSReleased    = "JOB_RELEASED"
	JSExecute     = "EXECUTE"
	JSTerminated  = "JOB_TERMINATED"
	JSMainError   = "MAIN_ERROR"
	JSSuccess     = "JOB_SUCCESS"
	JSFailure     = "JOB_FAILURE"
	JSAborted     = "JOB_ABORTED"
	JSPreStarted  = "PRE_SCRIPT_STARTED"
	JSPreSuccess  = "PRE_SCRIPT_SUCCESS"
	JSPreFailure  = "PRE_SCRIPT_FAILURE"
	JSPostStarted = "POST_SCRIPT_STARTED"
	JSPostSuccess = "POST_SCRIPT_SUCCESS"
	JSPostFailure = "POST_SCRIPT_FAILURE"
)

// JobStates is the jobstate vocabulary, each state once: exactly the states
// the Lifecycles of the fold table (archive.go) name. The views count a
// workflow's job states in an array laid out in this order.
var JobStates = [...]string{
	JSSubmit, JSSubmitted, JSHeld, JSReleased, JSExecute, JSTerminated,
	JSMainError, JSSuccess, JSFailure, JSAborted, JSPreStarted, JSPreSuccess,
	JSPreFailure, JSPostStarted, JSPostSuccess, JSPostFailure,
}

// Schemas returns every table definition of the Stampede archive, in
// dependency order (referenced tables first).
func Schemas() []relstore.TableSchema {
	return []relstore.TableSchema{
		{
			Name: TWorkflow,
			Columns: []relstore.Column{
				{Name: "wf_uuid", Type: relstore.Str},
				{Name: "dax_label", Type: relstore.Str, Nullable: true},
				{Name: "dax_version", Type: relstore.Str, Nullable: true},
				{Name: "dax_file", Type: relstore.Str, Nullable: true},
				{Name: "dag_file_name", Type: relstore.Str, Nullable: true},
				{Name: "timestamp", Type: relstore.Time},
				{Name: "submit_hostname", Type: relstore.Str, Nullable: true},
				{Name: "submit_dir", Type: relstore.Str, Nullable: true},
				{Name: "planner_arguments", Type: relstore.Str, Nullable: true},
				{Name: "user", Type: relstore.Str, Nullable: true},
				{Name: "planner_version", Type: relstore.Str, Nullable: true},
				{Name: "root_wf_uuid", Type: relstore.Str, Nullable: true},
				{Name: "parent_wf_id", Type: relstore.Int, Nullable: true},
			},
			Indexes: [][]string{{"wf_uuid"}, {"parent_wf_id"}},
		},
		{
			Name: TWorkflowState,
			Columns: []relstore.Column{
				{Name: "wf_id", Type: relstore.Int},
				{Name: "state", Type: relstore.Str},
				{Name: "timestamp", Type: relstore.Time},
				{Name: "restart_count", Type: relstore.Int},
				{Name: "status", Type: relstore.Int, Nullable: true},
			},
			Indexes: [][]string{{"wf_id"}},
		},
		{
			Name: THost,
			Columns: []relstore.Column{
				{Name: "site", Type: relstore.Str},
				{Name: "hostname", Type: relstore.Str},
				{Name: "ip", Type: relstore.Str},
				{Name: "uname", Type: relstore.Str, Nullable: true},
				{Name: "total_memory", Type: relstore.Int, Nullable: true},
			},
		},
		{
			Name: TTask,
			Columns: []relstore.Column{
				{Name: "wf_id", Type: relstore.Int},
				{Name: "abs_task_id", Type: relstore.Str},
				{Name: "type_desc", Type: relstore.Str, Nullable: true},
				{Name: "transformation", Type: relstore.Str, Nullable: true},
				{Name: "argv", Type: relstore.Str, Nullable: true},
				{Name: "job_id", Type: relstore.Int, Nullable: true}, // set by wf.map.task_job
			},
			Indexes: [][]string{{"wf_id"}},
		},
		{
			Name: TTaskEdge,
			Columns: []relstore.Column{
				{Name: "wf_id", Type: relstore.Int},
				{Name: "parent_abs_task_id", Type: relstore.Str},
				{Name: "child_abs_task_id", Type: relstore.Str},
			},
		},
		{
			Name: TJob,
			Columns: []relstore.Column{
				{Name: "wf_id", Type: relstore.Int},
				{Name: "exec_job_id", Type: relstore.Str},
				{Name: "type_desc", Type: relstore.Str, Nullable: true},
				{Name: "clustered", Type: relstore.Bool, Nullable: true},
				{Name: "max_retries", Type: relstore.Int, Nullable: true},
				{Name: "executable", Type: relstore.Str, Nullable: true},
				{Name: "argv", Type: relstore.Str, Nullable: true},
				{Name: "task_count", Type: relstore.Int, Nullable: true},
			},
			Indexes: [][]string{{"wf_id"}},
		},
		{
			Name: TJobEdge,
			Columns: []relstore.Column{
				{Name: "wf_id", Type: relstore.Int},
				{Name: "parent_exec_job_id", Type: relstore.Str},
				{Name: "child_exec_job_id", Type: relstore.Str},
			},
		},
		{
			Name: TJobInstance,
			Columns: []relstore.Column{
				{Name: "job_id", Type: relstore.Int},
				{Name: "job_submit_seq", Type: relstore.Int},
				{Name: "host_id", Type: relstore.Int, Nullable: true},
				{Name: "site", Type: relstore.Str, Nullable: true},
				{Name: "user", Type: relstore.Str, Nullable: true},
				{Name: "subwf_uuid", Type: relstore.Str, Nullable: true},
				{Name: "stdout_file", Type: relstore.Str, Nullable: true},
				{Name: "stdout_text", Type: relstore.Str, Nullable: true},
				{Name: "stderr_file", Type: relstore.Str, Nullable: true},
				{Name: "stderr_text", Type: relstore.Str, Nullable: true},
				{Name: "multiplier_factor", Type: relstore.Int, Nullable: true},
				{Name: "exitcode", Type: relstore.Int, Nullable: true},
				{Name: "local_duration", Type: relstore.Float, Nullable: true},
			},
			Indexes: [][]string{{"job_id"}},
		},
		{
			Name: TJobState,
			Columns: []relstore.Column{
				{Name: "job_instance_id", Type: relstore.Int},
				{Name: "state", Type: relstore.Str},
				{Name: "timestamp", Type: relstore.Time},
				{Name: "jobstate_submit_seq", Type: relstore.Int},
			},
			Indexes: [][]string{{"job_instance_id"}},
		},
		{
			Name: TInvocation,
			Columns: []relstore.Column{
				{Name: "job_instance_id", Type: relstore.Int},
				{Name: "wf_id", Type: relstore.Int},
				{Name: "task_submit_seq", Type: relstore.Int},
				{Name: "start_time", Type: relstore.Time, Nullable: true},
				{Name: "remote_duration", Type: relstore.Float, Nullable: true},
				{Name: "remote_cpu_time", Type: relstore.Float, Nullable: true},
				{Name: "exitcode", Type: relstore.Int, Nullable: true},
				{Name: "transformation", Type: relstore.Str, Nullable: true},
				{Name: "executable", Type: relstore.Str, Nullable: true},
				{Name: "argv", Type: relstore.Str, Nullable: true},
				{Name: "abs_task_id", Type: relstore.Str, Nullable: true},
			},
			Indexes: [][]string{{"wf_id"}, {"job_instance_id"}},
		},
	}
}

// A reference is a column whose value, unless NULL, is the id of a row of
// table to. CheckIntegrity proves every one names a live row.
type reference struct{ table, column, to string }

var references = []reference{
	{TWorkflow, "parent_wf_id", TWorkflow},
	{TWorkflowState, "wf_id", TWorkflow},
	{TTask, "wf_id", TWorkflow},
	{TTask, "job_id", TJob},
	{TTaskEdge, "wf_id", TWorkflow},
	{TJob, "wf_id", TWorkflow},
	{TJobEdge, "wf_id", TWorkflow},
	{TJobInstance, "job_id", TJob},
	{TJobInstance, "host_id", THost},
	{TJobState, "job_instance_id", TJobInstance},
	{TInvocation, "job_instance_id", TJobInstance},
	{TInvocation, "wf_id", TWorkflow},
}

// An identity is the columns that name one entity of the model (§IV-D).
// The archive resolves every event to its row by these keys (wfIDs,
// hostIDs, each partState's maps), so a re-emitted description finds the
// row it describes and is skipped; CheckIntegrity proves no key repeats.
type identity struct {
	table   string
	columns []string
}

var identities = []identity{
	{TWorkflow, []string{"wf_uuid"}},
	{THost, []string{"site", "hostname", "ip"}},
	{TTask, []string{"wf_id", "abs_task_id"}},
	{TTaskEdge, []string{"wf_id", "parent_abs_task_id", "child_abs_task_id"}},
	{TJob, []string{"wf_id", "exec_job_id"}},
	{TJobEdge, []string{"wf_id", "parent_exec_job_id", "child_exec_job_id"}},
	{TJobInstance, []string{"job_id", "job_submit_seq"}},
	{TInvocation, []string{"job_instance_id", "task_submit_seq"}},
}
