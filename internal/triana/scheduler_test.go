package triana

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// passthrough builds a unit that records its invocations and forwards
// input.
func passthrough(name string, log *[]string, mu *sync.Mutex) Unit {
	return &FuncUnit{UnitName: name, Fn: func(ctx *ProcessContext) ([]any, error) {
		mu.Lock()
		*log = append(*log, name)
		mu.Unlock()
		if len(ctx.Inputs) == 0 {
			return []any{name}, nil
		}
		out := make([]any, len(ctx.Inputs))
		copy(out, ctx.Inputs)
		if len(out) > 1 {
			return []any{out}, nil
		}
		return out, nil
	}}
}

func TestSingleStepLinearPipeline(t *testing.T) {
	g := NewTaskGraph("linear")
	var mu sync.Mutex
	var order []string
	a := g.MustAddTask("a", passthrough("a", &order, &mu))
	b := g.MustAddTask("b", passthrough("b", &order, &mu))
	c := g.MustAddTask("c", passthrough("c", &order, &mu))
	if _, err := g.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(b, c); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(g, Options{Mode: SingleStep})
	report, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 3 || report.Errored != 0 || report.Invocations != 3 {
		t.Fatalf("report = %+v", report)
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(order) != "[a b c]" {
		t.Fatalf("execution order = %v", order)
	}
	if g.State() != Complete {
		t.Fatalf("graph state = %v", g.State())
	}
	if report.RunUUID == "" {
		t.Fatal("no run uuid")
	}
}

func TestSingleStepDiamondDataFlow(t *testing.T) {
	// a -> b, a -> c, (b,c) -> d; d must receive both values.
	g := NewTaskGraph("diamond")
	src := g.MustAddTask("src", &FuncUnit{UnitName: "src", Fn: func(*ProcessContext) ([]any, error) {
		return []any{7}, nil
	}})
	double := g.MustAddTask("double", &FuncUnit{UnitName: "double", Fn: func(ctx *ProcessContext) ([]any, error) {
		return []any{ctx.Inputs[0].(int) * 2}, nil
	}})
	triple := g.MustAddTask("triple", &FuncUnit{UnitName: "triple", Fn: func(ctx *ProcessContext) ([]any, error) {
		return []any{ctx.Inputs[0].(int) * 3}, nil
	}})
	var got []any
	sink := g.MustAddTask("sink", &FuncUnit{UnitName: "sink", Fn: func(ctx *ProcessContext) ([]any, error) {
		got = append([]any(nil), ctx.Inputs...)
		return nil, nil
	}})
	for _, pair := range [][2]*Task{{src, double}, {src, triple}, {double, sink}, {triple, sink}} {
		if _, err := g.Connect(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	s := NewScheduler(g, Options{Mode: SingleStep})
	report, err := s.Run(context.Background())
	if err != nil || report.Err != nil {
		t.Fatalf("run: %v %v", err, report)
	}
	if len(got) != 2 || got[0] != 14 || got[1] != 21 {
		t.Fatalf("sink inputs = %v", got)
	}
}

func TestSingleStepErrorPropagatesNotExecutable(t *testing.T) {
	g := NewTaskGraph("failing")
	bad := g.MustAddTask("bad", &FuncUnit{UnitName: "bad", Fn: func(*ProcessContext) ([]any, error) {
		return nil, errors.New("boom")
	}})
	down := g.MustAddTask("down", &FuncUnit{UnitName: "down", Fn: func(ctx *ProcessContext) ([]any, error) {
		t.Error("downstream of failed task ran")
		return nil, nil
	}})
	indep := g.MustAddTask("indep", &FuncUnit{UnitName: "indep", Fn: func(*ProcessContext) ([]any, error) {
		return []any{1}, nil
	}})
	_, _ = g.Connect(bad, down)
	s := NewScheduler(g, Options{Mode: SingleStep})
	report, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Err == nil {
		t.Fatal("run with failure reported success")
	}
	if bad.State() != Error || down.State() != NotExecutable || indep.State() != Complete {
		t.Fatalf("states: bad=%v down=%v indep=%v", bad.State(), down.State(), indep.State())
	}
	if g.State() != Error {
		t.Fatalf("graph state = %v", g.State())
	}
}

func TestSingleStepRejectsCycle(t *testing.T) {
	g := NewTaskGraph("loop")
	var mu sync.Mutex
	var order []string
	a := g.MustAddTask("a", passthrough("a", &order, &mu))
	b := g.MustAddTask("b", passthrough("b", &order, &mu))
	_, _ = g.Connect(a, b)
	_, _ = g.Connect(b, a)
	s := NewScheduler(g, Options{Mode: SingleStep})
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("cycle accepted in single-step mode")
	}
}

func TestContinuousStreaming(t *testing.T) {
	g := NewTaskGraph("stream")
	items := []any{1, 2, 3, 4, 5}
	src := g.MustAddTask("src", &SliceSource{UnitName: "src", Items: items, Streaming: true})
	var mu sync.Mutex
	var got []int
	sink := g.MustAddTask("sink", &FuncUnit{UnitName: "sink", Fn: func(ctx *ProcessContext) ([]any, error) {
		mu.Lock()
		got = append(got, ctx.Inputs[0].(int))
		mu.Unlock()
		return nil, nil
	}})
	_, _ = g.Connect(src, sink)
	s := NewScheduler(g, Options{Mode: Continuous})
	report, err := s.Run(context.Background())
	if err != nil || report.Err != nil {
		t.Fatalf("run: %v %+v", err, report)
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(got) != "[1 2 3 4 5]" {
		t.Fatalf("streamed values = %v", got)
	}
	// src: 5 invocations, sink: 5 invocations.
	if report.Invocations != 10 {
		t.Fatalf("invocations = %d, want 10", report.Invocations)
	}
}

func TestContinuousIterativeThreshold(t *testing.T) {
	// The paper's motivating continuous example: analyze until a threshold
	// is reached within an iterative algorithm.
	g := NewTaskGraph("iterate")
	n := 0
	src := g.MustAddTask("gen", &FuncUnit{UnitName: "gen", Fn: func(ctx *ProcessContext) ([]any, error) {
		n++
		if n > 50 {
			return nil, ErrStopIteration
		}
		return []any{float64(n) * 0.1}, nil
	}})
	var crossed float64
	sink := g.MustAddTask("check", &FuncUnit{UnitName: "check", Fn: func(ctx *ProcessContext) ([]any, error) {
		v := ctx.Inputs[0].(float64)
		if v >= 2.0 && crossed == 0 {
			crossed = v
		}
		return nil, nil
	}})
	_, _ = g.Connect(src, sink)
	s := NewScheduler(g, Options{Mode: Continuous})
	report, err := s.Run(context.Background())
	if err != nil || report.Err != nil {
		t.Fatalf("run: %v %+v", err, report)
	}
	if crossed < 2.0 {
		t.Fatalf("threshold never crossed: %v", crossed)
	}
	if report.Completed != 2 {
		t.Fatalf("completed = %d", report.Completed)
	}
}

func TestStopInterruptsContinuousRun(t *testing.T) {
	g := NewTaskGraph("infinite")
	src := g.MustAddTask("ticker", &FuncUnit{UnitName: "ticker", Fn: func(*ProcessContext) ([]any, error) {
		time.Sleep(time.Millisecond)
		return []any{1}, nil
	}})
	sink := g.MustAddTask("sink", &FuncUnit{UnitName: "sink", Fn: func(*ProcessContext) ([]any, error) {
		return nil, nil
	}})
	_, _ = g.Connect(src, sink)
	s := NewScheduler(g, Options{Mode: Continuous})
	done := make(chan *RunReport)
	go func() {
		report, err := s.Run(context.Background())
		if err != nil {
			t.Errorf("run: %v", err)
		}
		done <- report
	}()
	time.Sleep(30 * time.Millisecond)
	s.Stop()
	select {
	case report := <-done:
		if report.Invocations == 0 {
			t.Error("nothing ran before stop")
		}
		if g.State() != Suspended {
			t.Errorf("graph state = %v", g.State())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not end the run")
	}
}

func TestRerunIsNewWorkflow(t *testing.T) {
	g := NewTaskGraph("rerun")
	g.MustAddTask("only", &FuncUnit{UnitName: "only", Fn: func(*ProcessContext) ([]any, error) {
		return nil, nil
	}})
	s := NewScheduler(g, Options{Mode: SingleStep})
	r1, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.RunUUID == r2.RunUUID {
		t.Fatal("re-run kept the same workflow uuid")
	}
	if r2.Completed != 1 {
		t.Fatalf("second run report = %+v", r2)
	}
}

func TestResetLifecycle(t *testing.T) {
	g := NewTaskGraph("resettable")
	a := g.MustAddTask("a", &FuncUnit{UnitName: "a", Fn: func(*ProcessContext) ([]any, error) {
		return []any{1}, nil
	}})
	b := g.MustAddTask("b", &FuncUnit{UnitName: "b", Fn: func(*ProcessContext) ([]any, error) {
		return nil, nil
	}})
	_, _ = g.Connect(a, b)

	var mu sync.Mutex
	var transitions []State
	s := NewScheduler(g, Options{Mode: SingleStep, Listeners: []Listener{
		ListenerFunc(func(ev ExecutionEvent) {
			if ev.Task == nil {
				mu.Lock()
				transitions = append(transitions, ev.New)
				mu.Unlock()
			}
		}),
	}})
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if g.State() != NotInitialized || a.State() != NotInitialized {
		t.Fatalf("states after reset: graph=%v a=%v", g.State(), a.State())
	}
	mu.Lock()
	sawResetting, sawReset := false, false
	for _, st := range transitions {
		if st == Resetting {
			sawResetting = true
		}
		if st == Reset {
			sawReset = true
		}
	}
	mu.Unlock()
	if !sawResetting || !sawReset {
		t.Fatalf("reset lifecycle events missing: %v", transitions)
	}
	// The graph runs again after a reset.
	report, err := s.Run(context.Background())
	if err != nil || report.Completed != 2 {
		t.Fatalf("rerun after reset: %+v, %v", report, err)
	}
}

func TestResetWhileRunningRejected(t *testing.T) {
	g := NewTaskGraph("busy")
	started := make(chan struct{})
	release := make(chan struct{})
	g.MustAddTask("slow", &FuncUnit{UnitName: "slow", Fn: func(*ProcessContext) ([]any, error) {
		close(started)
		<-release
		return nil, nil
	}})
	s := NewScheduler(g, Options{Mode: SingleStep})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = s.Run(context.Background())
	}()
	<-started
	if err := s.Reset(); err == nil {
		t.Error("reset of a running graph accepted")
	}
	close(release)
	<-done
	if err := s.Reset(); err != nil {
		t.Errorf("reset after completion: %v", err)
	}
}

func TestGraphValidation(t *testing.T) {
	g := NewTaskGraph("bad")
	if _, err := g.AddTask("", nil); err == nil {
		t.Error("empty task name accepted")
	}
	a := g.MustAddTask("a", &FuncUnit{UnitName: "a", Fn: func(*ProcessContext) ([]any, error) { return nil, nil }})
	if _, err := g.AddTask("a", nil); err == nil {
		t.Error("duplicate task accepted")
	}
	if _, err := g.Connect(a, a); err == nil {
		t.Error("self-loop accepted")
	}
	other := NewTaskGraph("other")
	b := other.MustAddTask("b", &FuncUnit{UnitName: "b", Fn: func(*ProcessContext) ([]any, error) { return nil, nil }})
	if _, err := g.Connect(a, b); err == nil {
		t.Error("cross-graph cable accepted")
	}
	empty := NewTaskGraph("empty")
	s := NewScheduler(empty, Options{})
	if _, err := s.Run(context.Background()); err == nil {
		t.Error("empty graph ran")
	}
}

// Reset returns a finished (or never-started) task graph to its initial
// state, emitting the RESETTING/RESET lifecycle transitions the paper's
// event vocabulary includes. Resetting a running graph is an error; Stop
// it first.
func (s *Scheduler) Reset() error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return fmt.Errorf("triana: cannot reset a running task graph")
	}
	s.mu.Unlock()
	s.graphTransition(Resetting)
	for _, t := range s.graph.Tasks() {
		if t.State() != NotInitialized {
			s.taskTransition(t, Resetting, 0, nil)
			s.taskTransition(t, Reset, 0, nil)
		}
	}
	for _, c := range s.graph.Cables() {
		c.ch = make(chan any, cableCapacity)
	}
	for _, t := range s.graph.Tasks() {
		t.setState(NotInitialized)
	}
	s.graphTransition(Reset)
	s.graph.setState(NotInitialized)
	return nil
}

// Task returns a task by name, nil when absent.
func (g *TaskGraph) Task(name string) *Task {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.byName[name]
}

// State returns the graph's lifecycle state.
func (g *TaskGraph) State() State {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.state
}

// ListenerFunc adapts a function to the Listener interface.
type ListenerFunc func(ExecutionEvent)

// OnEvent implements Listener.
func (f ListenerFunc) OnEvent(ev ExecutionEvent) { f(ev) }
