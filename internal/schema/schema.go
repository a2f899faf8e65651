// Package schema defines the Stampede workflow-monitoring data model as a
// YANG schema (the paper's §IV-B) and validates NetLogger BP log messages
// against it, playing the role pyang plays in the published toolchain.
//
// The schema text in Text covers every event the Stampede loader
// understands: workflow planning and lifecycle (stampede.wf.*,
// stampede.xwf.*), abstract-workflow structure (stampede.task.*),
// executable-workflow structure (stampede.job.*), job-instance lifecycle
// (stampede.job_inst.*) and invocations (stampede.inv.*).
package schema

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/bp"
	"repro/internal/yang"
)

// Event type names, one constant per container in the schema. Engines and
// normalizers emit these; the loader and archive dispatch on them.
const (
	WfPlan        = "stampede.wf.plan"
	StaticStart   = "stampede.static.start"
	StaticEnd     = "stampede.static.end"
	XwfStart      = "stampede.xwf.start"
	XwfEnd        = "stampede.xwf.end"
	TaskInfo      = "stampede.task.info"
	TaskEdge      = "stampede.task.edge"
	JobInfo       = "stampede.job.info"
	JobEdge       = "stampede.job.edge"
	MapTaskJob    = "stampede.wf.map.task_job"
	MapSubwfJob   = "stampede.xwf.map.subwf_job"
	JobInstPre    = "stampede.job_inst.pre.start"
	JobInstPreEnd = "stampede.job_inst.pre.end"
	SubmitStart   = "stampede.job_inst.submit.start"
	SubmitEnd     = "stampede.job_inst.submit.end"
	HeldStart     = "stampede.job_inst.held.start"
	HeldEnd       = "stampede.job_inst.held.end"
	MainStart     = "stampede.job_inst.main.start"
	MainTerm      = "stampede.job_inst.main.term"
	MainError     = "stampede.job_inst.main.error"
	MainEnd       = "stampede.job_inst.main.end"
	PostStart     = "stampede.job_inst.post.start"
	PostEnd       = "stampede.job_inst.post.end"
	HostInfo      = "stampede.job_inst.host.info"
	ImageInfo     = "stampede.job_inst.image.info"
	AbortInfo     = "stampede.job_inst.abort.info"
	InvStart      = "stampede.inv.start"
	InvEnd        = "stampede.inv.end"
)

// Attribute keys shared across events.
const (
	AttrLevel      = "level"
	AttrXwfID      = "xwf.id"
	AttrTaskID     = "task.id"
	AttrJobID      = "job.id"
	AttrJobInstID  = "job_inst.id"
	AttrInvID      = "inv.id"
	AttrStatus     = "status"
	AttrExitcode   = "exitcode"
	AttrSite       = "site"
	AttrHostname   = "hostname"
	AttrDur        = "dur"
	AttrStartTime  = "start_time"
	AttrParentXwf  = "parent.xwf.id"
	AttrRootXwf    = "root.xwf.id"
	AttrSubwfID    = "subwf.id"
	AttrRemoteCPU  = "remote_cpu_time"
	AttrTransform  = "transformation"
	AttrExecutable = "executable"
	AttrArgv       = "argv"
	AttrStdoutText = "stdout.text"
	AttrStderrText = "stderr.text"
)

func init() {
	// Register the Stampede vocabulary with the BP intern table so the
	// very first parsed event resolves its keys and type to canonical
	// per-process strings. bp cannot import schema (schema imports bp),
	// so the seeding runs from this side of the edge.
	bp.InternStrings(
		WfPlan, StaticStart, StaticEnd, XwfStart, XwfEnd,
		TaskInfo, TaskEdge, JobInfo, JobEdge, MapTaskJob, MapSubwfJob,
		JobInstPre, JobInstPreEnd, SubmitStart, SubmitEnd,
		HeldStart, HeldEnd, MainStart, MainTerm, MainError, MainEnd,
		PostStart, PostEnd, HostInfo, ImageInfo, AbortInfo,
		InvStart, InvEnd,
	)
	bp.InternStrings(
		AttrLevel, AttrXwfID, AttrTaskID, AttrJobID, AttrJobInstID,
		AttrInvID, AttrStatus, AttrExitcode, AttrSite, AttrHostname,
		AttrDur, AttrStartTime, AttrParentXwf, AttrRootXwf, AttrSubwfID,
		AttrRemoteCPU, AttrTransform, AttrExecutable, AttrArgv,
		AttrStdoutText, AttrStderrText,
	)
	// Non-constant keys the archive reads straight from events.
	bp.InternStrings(
		"submit.hostname", "dax.label", "dax.version", "dax.file",
		"dag.file.name", "submit_dir", "user", "planner.version",
		"restart_count", "type_desc", "parent.task.id", "child.task.id",
		"clustered", "max_retries", "task_count", "parent.job.id",
		"child.job.id", "stdout.file", "stderr.file", "multiplier_factor",
		"ip", "uname", "total_memory", "sched.id",
	)
}

var (
	once  sync.Once
	model *yang.Model
	mErr  error
)

// Model returns the resolved Stampede data model. The schema text is
// parsed once; a parse failure is a build defect and is reported on every
// call.
func Model() (*yang.Model, error) {
	once.Do(func() {
		root, err := yang.Parse(Text)
		if err != nil {
			mErr = err
			return
		}
		model, mErr = yang.Resolve(root)
	})
	return model, mErr
}

// Validator checks BP events against the Stampede model.
type Validator struct {
	model *yang.Model
	// Strict rejects attributes that the event's container does not
	// declare. The published loader ignores extras, so Strict defaults to
	// false; tests for normalizers turn it on to catch typos.
	Strict bool
}

// NewValidator returns a validator over the embedded schema.
func NewValidator() (*Validator, error) {
	m, err := Model()
	if err != nil {
		return nil, err
	}
	return &Validator{model: m}, nil
}

// ValidationError aggregates everything wrong with one event.
type ValidationError struct {
	EventType string
	Problems  []string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("schema: event %s invalid: %s", e.EventType, strings.Join(e.Problems, "; "))
}

// Validate checks ev against its container definition: the event type must
// exist, mandatory leaves must be present, and every present attribute
// must type-check. It returns nil when the event conforms.
func (v *Validator) Validate(ev *bp.Event) error {
	c, ok := v.model.Containers[ev.Type]
	if !ok {
		return &ValidationError{EventType: ev.Type, Problems: []string{"unknown event type"}}
	}
	var problems []string
	for _, leaf := range c.OrderedLeaves() {
		// ts is carried on the Event struct, not in Attrs.
		if leaf.Name == bp.KeyTS {
			continue
		}
		val, present := ev.Attrs.Lookup(leaf.Name)
		if !present {
			if leaf.Mandatory {
				problems = append(problems, fmt.Sprintf("missing mandatory attribute %q", leaf.Name))
			}
			continue
		}
		if err := leaf.CheckValue(val); err != nil {
			problems = append(problems, fmt.Sprintf("attribute %q: %v", leaf.Name, err))
		}
	}
	if ev.TS.IsZero() {
		problems = append(problems, "zero timestamp")
	}
	if v.Strict {
		for i := range ev.Attrs {
			if _, declared := c.Leaves[ev.Attrs[i].Key]; !declared {
				problems = append(problems, fmt.Sprintf("undeclared attribute %q", ev.Attrs[i].Key))
			}
		}
	}
	if len(problems) > 0 {
		return &ValidationError{EventType: ev.Type, Problems: problems}
	}
	return nil
}
