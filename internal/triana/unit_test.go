package triana

import (
	"context"
	"testing"
	"time"

	"repro/internal/wfclock"
)

func TestSliceSourceSingleStepEmitsWholeSlice(t *testing.T) {
	g := NewTaskGraph("batch")
	src := g.MustAddTask("src", &SliceSource{UnitName: "src", Items: []any{1, 2, 3}})
	var got []any
	sink := g.MustAddTask("sink", &FuncUnit{UnitName: "sink", Fn: func(ctx *ProcessContext) ([]any, error) {
		got, _ = ctx.Inputs[0].([]any)
		return nil, nil
	}})
	_, _ = g.Connect(src, sink)
	s := NewScheduler(g, Options{Mode: SingleStep})
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("single-step slice source emitted %v", got)
	}
}

func TestWorkUnitPassthroughAndDefaults(t *testing.T) {
	clk := wfclock.NewScaled(time.Unix(0, 0).UTC(), 10000)
	g := NewTaskGraph("work")
	src := g.MustAddTask("src", &FuncUnit{UnitName: "src", Fn: func(*ProcessContext) ([]any, error) {
		return []any{"payload"}, nil
	}})
	work := g.MustAddTask("work", &WorkUnit{UnitName: "work", Duration: 5 * time.Second, Clock: clk})
	var got any
	sink := g.MustAddTask("sink", &FuncUnit{UnitName: "sink", Fn: func(ctx *ProcessContext) ([]any, error) {
		got = ctx.Inputs[0]
		return nil, nil
	}})
	_, _ = g.Connect(src, work)
	_, _ = g.Connect(work, sink)
	s := NewScheduler(g, Options{Mode: SingleStep, Clock: clk})
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != "payload" {
		t.Fatalf("workunit did not pass input through: %v", got)
	}
	if (&WorkUnit{}).TypeDesc() != "processing" {
		t.Error("default type desc changed")
	}
	if (&WorkUnit{Desc: "file"}).TypeDesc() != "file" {
		t.Error("explicit type desc ignored")
	}
}

func TestFuncUnitTypeDescDefault(t *testing.T) {
	if (&FuncUnit{}).TypeDesc() != "unit" {
		t.Error("FuncUnit default type desc changed")
	}
	if (&FuncUnit{Desc: "source"}).TypeDesc() != "source" {
		t.Error("FuncUnit explicit type desc ignored")
	}
}

// SliceSource emits the elements of a slice one per invocation in
// continuous mode, then stops — the streaming "chunks of data from
// previous tasks" source. In single-step mode it emits the whole slice as
// one value.
type SliceSource struct {
	UnitName string
	Items    []any
	// Streaming selects per-item emission (continuous mode).
	Streaming bool
}

// Name implements Unit.
func (u *SliceSource) Name() string { return u.UnitName }

// TypeDesc implements the TypeDesc extension.
func (u *SliceSource) TypeDesc() string { return "source" }

// Process implements Unit.
func (u *SliceSource) Process(ctx *ProcessContext) ([]any, error) {
	if !u.Streaming {
		return []any{u.Items}, nil
	}
	i := ctx.Invocation - 1
	if i >= len(u.Items) {
		return nil, ErrStopIteration
	}
	return []any{u.Items[i]}, nil
}
