package schema

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bp"
	"repro/internal/uuid"
)

var ts0 = time.Date(2012, 3, 13, 12, 35, 38, 0, time.UTC)

func newValidator(t *testing.T) *Validator {
	t.Helper()
	v, err := NewValidator()
	if err != nil {
		t.Fatalf("NewValidator: %v", err)
	}
	return v
}

func TestEmbeddedSchemaParses(t *testing.T) {
	m, err := Model()
	if err != nil {
		t.Fatalf("embedded schema does not parse: %v", err)
	}
	if m.ModuleName != "stampede" {
		t.Errorf("module name %q", m.ModuleName)
	}
	// Every exported event constant must resolve to a container.
	for _, name := range []string{
		WfPlan, StaticStart, StaticEnd, XwfStart, XwfEnd,
		TaskInfo, TaskEdge, JobInfo, JobEdge, MapTaskJob, MapSubwfJob,
		JobInstPre, JobInstPreEnd, SubmitStart, SubmitEnd,
		HeldStart, HeldEnd, MainStart, MainTerm, MainEnd,
		PostStart, PostEnd, HostInfo, ImageInfo, AbortInfo,
		InvStart, InvEnd,
	} {
		if _, ok := m.Containers[name]; !ok {
			t.Errorf("constant %q has no container in the schema", name)
		}
	}
}

func TestValidatePaperExample(t *testing.T) {
	v := newValidator(t)
	ev := bp.New(XwfStart, ts0).
		Set(AttrLevel, bp.LevelInfo).
		Set(AttrXwfID, "ea17e8ac-02ac-4909-b5e3-16e367392556").
		SetInt("restart_count", 0)
	if err := v.Validate(ev); err != nil {
		t.Fatalf("paper example rejected: %v", err)
	}
}

func TestValidateMissingMandatory(t *testing.T) {
	v := newValidator(t)
	ev := bp.New(XwfStart, ts0).Set(AttrXwfID, uuid.New().String())
	err := v.Validate(ev)
	if err == nil || !strings.Contains(err.Error(), "restart_count") {
		t.Fatalf("err = %v, want missing restart_count", err)
	}
}

func TestValidateBadTypes(t *testing.T) {
	v := newValidator(t)
	cases := []struct {
		name string
		ev   *bp.Event
		want string
	}{
		{
			"negative uint32",
			bp.New(XwfStart, ts0).SetInt("restart_count", -1),
			"restart_count",
		},
		{
			"malformed uuid",
			bp.New(XwfStart, ts0).SetInt("restart_count", 0).Set(AttrXwfID, "not-a-uuid"),
			"xwf.id",
		},
		{
			"non-numeric duration",
			bp.New(InvEnd, ts0).
				Set(AttrJobID, "j1").SetInt(AttrJobInstID, 1).SetInt(AttrInvID, 1).
				Set(AttrStartTime, "2012-03-13T12:35:38.000000Z").
				Set(AttrDur, "fast").SetInt(AttrExitcode, 0).Set(AttrTransform, "exec0"),
			"dur",
		},
	}
	for _, tc := range cases {
		err := v.Validate(tc.ev)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateUnknownEvent(t *testing.T) {
	v := newValidator(t)
	err := v.Validate(bp.New("stampede.nope", ts0))
	if err == nil || !strings.Contains(err.Error(), "unknown event type") {
		t.Fatalf("err = %v", err)
	}
	if TypeOf("stampede.nope") != 0 {
		t.Error("model knows stampede.nope")
	}
	if TypeOf(InvEnd) == 0 {
		t.Error("model lacks InvEnd")
	}
}

func TestValidateStrictRejectsUndeclared(t *testing.T) {
	v := newValidator(t)
	ev := bp.New(XwfStart, ts0).SetInt("restart_count", 0).Set("mystery", "x")
	if err := v.Validate(ev); err != nil {
		t.Fatalf("lenient mode rejected extra attr: %v", err)
	}
	v.Strict = true
	err := v.Validate(ev)
	if err == nil || !strings.Contains(err.Error(), "mystery") {
		t.Fatalf("strict mode err = %v", err)
	}
}

func TestValidateZeroTimestamp(t *testing.T) {
	v := newValidator(t)
	ev := &bp.Event{Type: XwfStart, Attrs: bp.Attrs{{Key: "restart_count", Val: "0"}}}
	err := v.Validate(ev)
	if err == nil || !strings.Contains(err.Error(), "zero timestamp") {
		t.Fatalf("err = %v", err)
	}
}

func TestInvEndFullRecordValidates(t *testing.T) {
	v := newValidator(t)
	v.Strict = true
	ev := bp.New(InvEnd, ts0).
		Set(AttrLevel, bp.LevelInfo).
		Set(AttrXwfID, uuid.New().String()).
		Set(AttrJobID, "processing.exec0").
		SetInt(AttrJobInstID, 1).
		SetInt(AttrInvID, 1).
		Set(AttrStartTime, ts0.Format(bp.TimeFormat)).
		SetFloat(AttrDur, 51.0).
		SetFloat(AttrRemoteCPU, 49.2).
		SetInt(AttrExitcode, 0).
		Set(AttrTransform, "processing.exec0").
		Set(AttrExecutable, "/usr/bin/java").
		Set(AttrArgv, "-jar dart.jar -p 0.5").
		Set(AttrTaskID, "t_exec0").
		Set(AttrSite, "trianacloud").
		Set(AttrHostname, "trianaworker6")
	if err := v.Validate(ev); err != nil {
		t.Fatalf("full inv.end rejected in strict mode: %v", err)
	}
}

func TestAllLifecycleEventsValidateMinimal(t *testing.T) {
	v := newValidator(t)
	wf := uuid.New().String()
	ref := func(e *bp.Event) *bp.Event {
		return e.Set(AttrXwfID, wf).Set(AttrJobID, "j").SetInt(AttrJobInstID, 1)
	}
	events := []*bp.Event{
		bp.New(WfPlan, ts0).Set(AttrXwfID, wf).Set("submit.hostname", "localhost").Set(AttrRootXwf, wf),
		bp.New(StaticStart, ts0).Set(AttrXwfID, wf),
		bp.New(StaticEnd, ts0).Set(AttrXwfID, wf),
		bp.New(XwfStart, ts0).Set(AttrXwfID, wf).SetInt("restart_count", 0),
		bp.New(TaskInfo, ts0).Set(AttrXwfID, wf).Set(AttrTaskID, "t1").
			Set("type_desc", "compute").Set(AttrTransform, "exec0"),
		bp.New(TaskEdge, ts0).Set(AttrXwfID, wf).Set("parent.task.id", "t1").Set("child.task.id", "t2"),
		bp.New(JobInfo, ts0).Set(AttrXwfID, wf).Set(AttrJobID, "j").Set("type_desc", "compute").
			SetInt("clustered", 0).SetInt("max_retries", 3).Set(AttrExecutable, "/bin/x").SetInt("task_count", 1),
		bp.New(JobEdge, ts0).Set(AttrXwfID, wf).Set("parent.job.id", "j1").Set("child.job.id", "j2"),
		bp.New(MapTaskJob, ts0).Set(AttrXwfID, wf).Set(AttrTaskID, "t1").Set(AttrJobID, "j"),
		bp.New(MapSubwfJob, ts0).Set(AttrXwfID, wf).Set(AttrSubwfID, uuid.New().String()).
			Set(AttrJobID, "j").SetInt(AttrJobInstID, 1),
		ref(bp.New(JobInstPre, ts0)),
		ref(bp.New(JobInstPreEnd, ts0)).SetInt(AttrStatus, 0).SetInt(AttrExitcode, 0),
		ref(bp.New(SubmitStart, ts0)),
		ref(bp.New(SubmitEnd, ts0)).SetInt(AttrStatus, 0),
		ref(bp.New(HeldStart, ts0)),
		ref(bp.New(HeldEnd, ts0)).SetInt(AttrStatus, 0),
		ref(bp.New(MainStart, ts0)),
		ref(bp.New(MainTerm, ts0)).SetInt(AttrStatus, 0),
		ref(bp.New(MainEnd, ts0)).SetInt(AttrStatus, 0).SetInt(AttrExitcode, 0),
		ref(bp.New(PostStart, ts0)),
		ref(bp.New(PostEnd, ts0)).SetInt(AttrStatus, 0).SetInt(AttrExitcode, 0),
		ref(bp.New(HostInfo, ts0)).Set(AttrSite, "local").Set(AttrHostname, "node1").Set("ip", "10.0.0.1"),
		ref(bp.New(ImageInfo, ts0)).SetInt("size", 1<<20),
		ref(bp.New(AbortInfo, ts0)),
		ref(bp.New(InvStart, ts0)).SetInt(AttrInvID, 1),
		ref(bp.New(InvEnd, ts0)).SetInt(AttrInvID, 1).
			Set(AttrStartTime, ts0.Format(bp.TimeFormat)).SetFloat(AttrDur, 1).
			SetInt(AttrExitcode, 0).Set(AttrTransform, "x"),
		bp.New(XwfEnd, ts0).Set(AttrXwfID, wf).SetInt("restart_count", 0).SetInt(AttrStatus, 0),
	}
	for _, ev := range events {
		if err := v.Validate(ev); err != nil {
			t.Errorf("%s: %v", ev.Type, err)
		}
	}
}

func TestValidateAfterBPRoundTrip(t *testing.T) {
	// Events must stay schema-valid across Format/Parse: the bus and log
	// files carry the text form.
	v := newValidator(t)
	ev := bp.New(MainEnd, ts0).
		Set(AttrXwfID, uuid.New().String()).
		Set(AttrJobID, "exec1").SetInt(AttrJobInstID, 1).
		SetInt(AttrStatus, 0).SetInt(AttrExitcode, 0).
		Set(AttrStdoutText, "result line 1\nresult line 2").
		Set(AttrSite, "trianacloud")
	back, err := bp.Parse(ev.Format())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(back); err != nil {
		t.Fatalf("round-tripped event invalid: %v", err)
	}
}

func TestEventTypesList(t *testing.T) {
	m, err := Model()
	if err != nil {
		t.Fatal(err)
	}
	types := m.ContainerNames()
	if len(types) < 25 {
		t.Fatalf("only %d event types in schema", len(types))
	}
	for _, typ := range types {
		if !strings.HasPrefix(typ, "stampede.") {
			t.Errorf("event type %q lacks stampede. prefix", typ)
		}
	}
}
