package triana

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/wfclock"
)

// Mode selects between Triana's two execution modes.
type Mode int

const (
	// SingleStep schedules each component to execute exactly once, like a
	// DAG — the mode the paper's DART experiment uses.
	SingleStep Mode = iota
	// Continuous keeps components waiting for data until released by a
	// local condition (ErrStopIteration from sources) or stopped.
	Continuous
)

func (m Mode) String() string {
	if m == Continuous {
		return "continuous"
	}
	return "single-step"
}

// Options configures a scheduler.
type Options struct {
	Mode  Mode
	Clock wfclock.Clock // defaults to wfclock.Real
	// Listeners receive every execution event (the StampedeLog goes
	// here).
	Listeners []Listener
	// Hostname is reported as the execution host (the paper logs
	// localhost for local runs).
	Hostname string
}

// Scheduler controls the start/stop lifecycle of one task graph and
// owns the runnable instances that execute its tasks.
type Scheduler struct {
	graph *TaskGraph
	opts  Options
	clock wfclock.Clock

	listeners []Listener // fixed at NewScheduler

	mu      sync.Mutex
	stop    context.CancelFunc
	running bool
}

// NewScheduler builds a scheduler for the graph.
func NewScheduler(g *TaskGraph, opts Options) *Scheduler {
	if opts.Clock == nil {
		opts.Clock = wfclock.Real
	}
	if opts.Hostname == "" {
		opts.Hostname = "localhost"
	}
	return &Scheduler{
		graph:     g,
		opts:      opts,
		clock:     opts.Clock,
		listeners: append([]Listener(nil), opts.Listeners...),
	}
}

func (s *Scheduler) emit(ev ExecutionEvent) {
	for _, l := range s.listeners {
		l.OnEvent(ev)
	}
}

func (s *Scheduler) taskTransition(t *Task, to State, inv int, err error) {
	s.taskTransitionT(t, to, inv, err, false)
}

// taskTransitionT is taskTransition with an explicit terminal marker.
func (s *Scheduler) taskTransitionT(t *Task, to State, inv int, err error, terminal bool) {
	old := t.setState(to)
	s.emit(ExecutionEvent{
		Task: t, Graph: s.graph, Old: old, New: to,
		Time: s.clock.Now(), Invocation: inv, Err: err, Terminal: terminal,
	})
}

func (s *Scheduler) graphTransition(to State) {
	old := s.graph.setState(to)
	s.emit(ExecutionEvent{Graph: s.graph, Old: old, New: to, Time: s.clock.Now()})
}

// Stop aborts the run; the GUI's stop button. In-flight invocations are
// interrupted at their next blocking point.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	stop := s.stop
	s.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// RunReport summarises one run.
type RunReport struct {
	RunUUID       string
	Completed     int
	Errored       int
	NotExecutable int
	Suspended     int
	Invocations   int
	Err           error
}

// Run executes the task graph to completion (or Stop/context
// cancellation). It is synchronous; use a goroutine to drive the GUI-style
// controls concurrently.
func (s *Scheduler) Run(ctx context.Context) (*RunReport, error) {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return nil, fmt.Errorf("triana: scheduler already running")
	}
	s.running = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running = false
		s.stop = nil
		s.mu.Unlock()
	}()

	tasks := s.graph.Tasks()
	if len(tasks) == 0 {
		return nil, fmt.Errorf("triana: empty task graph %q", s.graph.Name)
	}
	if s.opts.Mode == SingleStep && s.graph.HasCycle() {
		return nil, fmt.Errorf("triana: task graph %q has a cycle; single-step mode requires a DAG", s.graph.Name)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.mu.Lock()
	s.stop = cancel
	s.mu.Unlock()

	s.graph.freshRunUUID()
	// Reset cables and task state for a fresh run.
	for _, c := range s.graph.Cables() {
		c.ch = make(chan any, cableCapacity)
	}
	for _, t := range tasks {
		t.setState(NotInitialized)
	}

	s.graphTransition(Scheduled)
	s.graphTransition(Running)

	report := &RunReport{RunUUID: s.graph.RunUUID}
	var invMu sync.Mutex

	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		go func(t *Task) {
			defer wg.Done()
			n := s.runTask(runCtx, t)
			invMu.Lock()
			report.Invocations += n
			invMu.Unlock()
		}(t)
	}
	wg.Wait()

	for _, t := range tasks {
		switch t.State() {
		case Complete:
			report.Completed++
		case Error:
			report.Errored++
		case NotExecutable:
			report.NotExecutable++
		default:
			report.Suspended++
		}
	}
	switch {
	case report.Errored > 0:
		s.graphTransition(Error)
		report.Err = fmt.Errorf("triana: %d task(s) failed", report.Errored)
	case ctx.Err() != nil || report.Suspended > 0:
		s.graphTransition(Suspended)
	default:
		s.graphTransition(Complete)
	}
	return report, nil
}

// closeOutputs closes every outgoing cable of t exactly once per run; in
// this engine each task is the sole writer of its output cables.
func closeOutputs(t *Task) {
	for _, c := range t.outputs {
		close(c.ch)
	}
}

// receiveInputs gathers one value per input cable. It returns
// (values, true) on success; (nil, false) when any cable closed without a
// value or the context died.
func receiveInputs(ctx context.Context, t *Task) ([]any, bool) {
	vals := make([]any, len(t.inputs))
	for i, c := range t.inputs {
		select {
		case v, ok := <-c.ch:
			if !ok {
				return nil, false
			}
			vals[i] = v
		case <-ctx.Done():
			return nil, false
		}
	}
	return vals, true
}

// sendOutputs distributes the unit's return values over the output
// cables: one-to-one when lengths match, broadcast when a single value
// goes to many cables.
func sendOutputs(ctx context.Context, t *Task, out []any) error {
	if len(t.outputs) == 0 {
		return nil
	}
	if len(out) == 0 {
		return nil
	}
	if len(out) != len(t.outputs) && len(out) != 1 {
		return fmt.Errorf("triana: unit %q returned %d outputs for %d cables",
			t.Name, len(out), len(t.outputs))
	}
	for i, c := range t.outputs {
		v := out[0]
		if len(out) == len(t.outputs) {
			v = out[i]
		}
		select {
		case c.ch <- v:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// runTask is one runnable instance: the goroutine driving one task
// through its lifecycle. It returns the number of invocations executed.
func (s *Scheduler) runTask(ctx context.Context, t *Task) int {
	defer closeOutputs(t)
	s.taskTransition(t, Scheduled, 0, nil)
	s.taskTransition(t, Woken, 0, nil) // submit recorded; waiting for data

	invocations := 0
	for {
		var inputs []any
		if len(t.inputs) > 0 {
			vals, ok := receiveInputs(ctx, t)
			if !ok {
				if ctx.Err() != nil {
					s.taskTransitionT(t, Suspended, 0, nil, true)
				} else if invocations == 0 {
					// Upstream never produced data: not executable.
					s.taskTransitionT(t, NotExecutable, 0, nil, true)
				} else {
					s.taskTransitionT(t, Complete, 0, nil, true)
				}
				return invocations
			}
			inputs = vals
		} else if invocations > 0 && s.opts.Mode == SingleStep {
			// Sources run exactly once in single-step mode.
			s.taskTransitionT(t, Complete, 0, nil, true)
			return invocations
		}

		invocations++
		s.taskTransition(t, Running, invocations, nil)
		out, err := t.Unit.Process(&ProcessContext{Inputs: inputs, Invocation: invocations, Task: t})
		if err == ErrStopIteration {
			// The invocation never did work: mark it Reset (ignored by the
			// Stampede mapping) and finish cleanly.
			s.taskTransition(t, Reset, invocations, nil)
			invocations--
			s.taskTransitionT(t, Complete, 0, nil, true)
			return invocations
		}
		if err != nil {
			s.taskTransitionT(t, Error, invocations, err, true)
			if s.opts.Mode == Continuous {
				// A dead consumer would leave upstream producers blocked on
				// full cables forever; a continuous-mode failure aborts the
				// whole run, as interactively stopping the graph would.
				s.Stop()
			}
			return invocations
		}
		if err := sendOutputs(ctx, t, out); err != nil {
			s.taskTransitionT(t, Suspended, invocations, nil, true)
			return invocations
		}
		s.taskTransitionT(t, Complete, invocations, nil, s.opts.Mode == SingleStep)

		if s.opts.Mode == SingleStep {
			return invocations
		}
		if len(t.inputs) == 0 && ctx.Err() != nil {
			return invocations
		}
		// Continuous mode: go back to waiting for data.
		s.taskTransition(t, Woken, 0, nil)
	}
}
