package triana

import (
	"context"
	"fmt"

	"repro/internal/bp"
	"repro/internal/wfclock"
)

// SubWorkflowUnit runs a nested task graph when invoked: Triana's
// recursive model, where a task within a task graph may itself be a
// task graph. The unit creates a child StampedeLog wired into the same
// appender, links the child run to the parent job with xwf.map.subwf_job,
// and propagates the hierarchy identifiers so the archive can reconstruct
// parent/child relations.
type SubWorkflowUnit struct {
	UnitName string
	// Build constructs the child graph for one invocation; it receives
	// the inputs so meta-workflows can concretise sub-workflows from data
	// at runtime (the paper's §V-D).
	Build func(inputs []any) (*TaskGraph, error)
	// ParentLog is the parent workflow's StampedeLog; may be nil when the
	// parent is not being monitored.
	ParentLog *StampedeLog
	// Appender receives the child's Stampede events (usually the same
	// appender as the parent's).
	Appender bp.Appender
	// Opts configures the child scheduler (mode, clock, hostname).
	Opts Options
}

// ParentLogSetter is implemented by units that need the enclosing
// workflow's StampedeLog to chain the monitoring hierarchy. When a
// SubWorkflowUnit runs a child graph, it injects the child's log into
// every task unit that implements this interface — so arbitrarily deep
// nesting (sub-workflows spawning sub-workflows) wires itself up.
type ParentLogSetter interface {
	SetParentLog(*StampedeLog)
}

// SetParentLog implements ParentLogSetter: an explicitly configured
// ParentLog wins; otherwise the enclosing run's log is adopted.
func (u *SubWorkflowUnit) SetParentLog(l *StampedeLog) {
	if u.ParentLog == nil {
		u.ParentLog = l
	}
}

// Name implements Unit.
func (u *SubWorkflowUnit) Name() string { return u.UnitName }

// TypeDesc implements the TypeDesc extension.
func (u *SubWorkflowUnit) TypeDesc() string { return "sub-workflow" }

// Process implements Unit: it builds and synchronously executes the child
// workflow, returning the child's run UUID as its output value.
func (u *SubWorkflowUnit) Process(ctx *ProcessContext) ([]any, error) {
	child, err := u.Build(ctx.Inputs)
	if err != nil {
		return nil, fmt.Errorf("triana: building sub-workflow for %s: %w", ctx.Task.Name, err)
	}
	opts := u.Opts
	if opts.Clock == nil {
		opts.Clock = wfclock.Real
	}
	var childLog *StampedeLog
	if u.Appender != nil {
		childLog = NewStampedeLog(u.Appender)
		if u.ParentLog != nil {
			childLog.ParentUUID = u.ParentLog.WorkflowUUID()
			childLog.RootUUID = u.ParentLog.RootUUID
			if childLog.RootUUID == "" {
				childLog.RootUUID = u.ParentLog.WorkflowUUID()
			}
			childLog.Site = u.ParentLog.Site
		}
		if opts.Hostname != "" {
			childLog.Hostname = opts.Hostname
		}
		opts.Listeners = append(opts.Listeners, childLog)
		// Chain the hierarchy into any nested sub-workflow units.
		for _, t := range child.Tasks() {
			if ps, ok := t.Unit.(ParentLogSetter); ok {
				ps.SetParentLog(childLog)
			}
		}
	}
	sched := NewScheduler(child, opts)
	report, err := sched.Run(context.Background())
	if err != nil {
		return nil, err
	}
	if u.ParentLog != nil && childLog != nil {
		u.ParentLog.MapSubWorkflow(ctx.Task.Name, report.RunUUID, opts.Clock.Now())
	}
	if report.Err != nil {
		return nil, report.Err
	}
	return []any{report.RunUUID}, nil
}
