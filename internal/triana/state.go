// Package triana implements a Triana-style dataflow workflow engine: task
// graphs of Java-"Unit"-like components connected by cables, a scheduler
// that drives the task-graph lifecycle with runnable instances, the
// execution-event vocabulary of the paper's §V-B, and both execution
// modes — single step (each component runs once, like a DAG) and
// continuous (components stream until stopped or their input dries up).
//
// The StampedeLog type in this package is the integration the paper
// contributes: it listens for Triana execution events and converts them
// to Stampede events (1:1 task-to-job mapping, no planning stage), which
// an appender then writes to a BP log file or the message bus.
package triana

import "time"

// State is a Triana task or task-graph state. The names are exactly the
// set the paper lists as natively recognised by the workflow and task
// listener interfaces.
type State int

const (
	NotInitialized State = iota
	NotExecutable
	Scheduled
	Woken // WOKEN: submit recorded, waiting for input data
	Running
	Paused
	Complete
	Resetting
	Reset
	Error
	Suspended
	Unknown
	Lock
)

var stateNames = [...]string{
	"NOT_INITIALIZED", "NOT_EXECUTABLE", "SCHEDULED", "WOKEN", "RUNNING",
	"PAUSED", "COMPLETE", "RESETTING", "RESET", "ERROR", "SUSPENDED",
	"UNKNOWN", "LOCK",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "UNKNOWN"
}

// ExecutionEvent is one state transition, with the state it left.
type ExecutionEvent struct {
	Task     *Task // nil for task-graph-level events
	Graph    *TaskGraph
	Old, New State
	Time     time.Time
	// Invocation is the 1-based invocation index for per-invocation
	// events in continuous mode; 0 otherwise.
	Invocation int
	// Terminal marks the final transition of a task's run: in continuous
	// mode a task completes many invocations before its terminal
	// COMPLETE, and listeners need to tell them apart.
	Terminal bool
	// Err carries the unit error on transitions into Error.
	Err error
}

// Listener receives execution events. Implementations must be fast or
// hand off asynchronously: the scheduler calls them inline.
type Listener interface {
	OnEvent(ExecutionEvent)
}
