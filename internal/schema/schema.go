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
	"time"

	"repro/internal/bp"
	"repro/internal/yang"
)

// Event type names, one constant per container in the schema. Engines and
// normalizers emit these; the archive and the views key their per-type
// tables by them (ByType).
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

// Type is an event type's code: the position of its container in the
// model, counted from 1 in declaration order. 0 is no type the model
// declares. Consumers that dispatch on an event's type resolve the code
// once (TypeOf, or Validator.Check, which returns it) and index a table laid
// out with ByType, so no layer re-spells the vocabulary.
type Type uint8

// plan is what validating one event type takes, compiled from its container
// once: the leaves that can be wrong, in declaration order — the mandatory
// ones and those whose type CheckValue checks; ts aside, the Event struct
// carries it. An optional string leaf is never looked up.
type plan struct {
	leaves   []*yang.Leaf
	declared map[string]*yang.Leaf // every leaf, for Strict
}

// The compiled model: parsed once, at init, because the intern seeds come
// from it and the first parsed event must find them.
var (
	model *yang.Model
	mErr  error
	types map[string]Type
	plans []plan // by Type; plans[0] is the unknown type's
)

func init() {
	root, err := yang.Parse(Text)
	if err == nil {
		model, err = yang.Resolve(root)
	}
	if err != nil {
		mErr = err
		return
	}
	names := model.ContainerNames()
	if len(names) > 255 {
		mErr = fmt.Errorf("schema: %d containers do not fit a Type", len(names))
		return
	}
	types = make(map[string]Type, len(names))
	plans = make([]plan, 1, len(names)+1)
	// Every container and leaf name goes into the BP intern table, so the
	// very first parsed event resolves its type and keys to canonical
	// per-process strings. bp cannot import schema (schema imports bp), so
	// the seeding runs from this side of the edge.
	vocab := names
	for i, name := range names {
		c := model.Containers[name]
		types[name] = Type(i + 1)
		p := plan{declared: c.Leaves}
		for _, leaf := range c.OrderedLeaves() {
			vocab = append(vocab, leaf.Name)
			if leaf.Name != bp.KeyTS && (leaf.Mandatory || leaf.Type != yang.TypeString) {
				p.leaves = append(p.leaves, leaf)
			}
		}
		plans = append(plans, p)
	}
	bp.InternStrings(vocab...)
}

// Model returns the resolved Stampede data model. A schema text that does
// not parse is a build defect, reported on every call.
func Model() (*yang.Model, error) { return model, mErr }

// TypeOf returns the code of an event type name, 0 for a name the model
// does not declare.
func TypeOf(name string) Type { return types[name] }

// ByType lays a table keyed by event type name out by type code, for a
// consumer that dispatches on the code: entry TypeOf(name) holds m[name],
// entry 0 and a type m leaves out hold the zero T. A name the model does
// not declare panics: an entry no event can reach is a build defect.
func ByType[T any](m map[string]T) []T {
	out := make([]T, len(plans))
	for name, x := range m {
		t := TypeOf(name)
		if t == 0 {
			panic(fmt.Sprintf("schema: %q is no event type of the model", name))
		}
		out[t] = x
	}
	return out
}

// Validator checks BP events against the Stampede model.
type Validator struct {
	// Strict rejects attributes that the event's container does not
	// declare. The published loader ignores extras, so Strict defaults to
	// false; tests for normalizers turn it on to catch typos.
	Strict bool
}

// NewValidator returns a validator over the embedded schema.
func NewValidator() (*Validator, error) {
	if mErr != nil {
		return nil, mErr
	}
	return &Validator{}, nil
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
// exist, mandatory leaves must be present, every present attribute must
// type-check, and the timestamp must be one the archive can store. It
// returns nil when the event conforms.
func (v *Validator) Validate(ev *bp.Event) error {
	_, err := v.Check(ev)
	return err
}

// Check is Validate returning the event's type code as well, so a caller
// that dispatches on it resolves the type once.
func (v *Validator) Check(ev *bp.Event) (Type, error) {
	t := types[ev.Type]
	if t == 0 {
		return 0, &ValidationError{EventType: ev.Type, Problems: []string{"unknown event type"}}
	}
	p := &plans[t]
	var problems []string
	for _, leaf := range p.leaves {
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
	if !bp.Representable(ev.TS) {
		if ev.TS.IsZero() {
			problems = append(problems, "zero timestamp")
		} else {
			problems = append(problems, fmt.Sprintf("timestamp %s is outside the representable range (years 1678 to 2262)",
				ev.TS.UTC().Format(time.RFC3339Nano)))
		}
	}
	if v.Strict {
		for i := range ev.Attrs {
			if _, declared := p.declared[ev.Attrs[i].Key]; !declared {
				problems = append(problems, fmt.Sprintf("undeclared attribute %q", ev.Attrs[i].Key))
			}
		}
	}
	if len(problems) > 0 {
		return 0, &ValidationError{EventType: ev.Type, Problems: problems}
	}
	return t, nil
}
