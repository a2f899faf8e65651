package triana

import (
	"fmt"
	"sync"

	"repro/internal/uuid"
)

// Unit is the component contract, mirroring Triana's Java Unit class: a
// named piece of code with a Process method. Inputs arrive as one value
// per connected input cable; the returned slice is distributed across the
// output cables (a single return value is broadcast to all of them).
type Unit interface {
	Name() string
	Process(ctx *ProcessContext) ([]any, error)
}

// TypeDesc is implemented by units that want a Stampede type_desc other
// than the default "unit".
type TypeDesc interface {
	TypeDesc() string
}

// ProcessContext is what a unit sees during one invocation.
type ProcessContext struct {
	// Inputs holds one value per input cable, in connection order. Source
	// units (no inputs) see an empty slice.
	Inputs []any
	// Invocation is the 1-based invocation count for this task in the
	// current run.
	Invocation int
	// Task is the node being executed (for name/parameter access).
	Task *Task
}

// ErrStopIteration is returned by a continuous-mode source unit to signal
// that it has no more data; the scheduler treats it as normal completion,
// the "local condition" that releases a component in the paper's terms.
var ErrStopIteration = fmt.Errorf("triana: stop iteration")

// Cable is a directed, buffered connection between two tasks. Buffering
// provides the "queuing function at both the input and output cables"
// that Triana's streaming mode relies on.
type Cable struct {
	From, To *Task
	ch       chan any
}

// cableCapacity is the queue depth per cable; deep enough that single-step
// workflows never block on output.
const cableCapacity = 64

// Task is one node of a task graph: a unit plus its cable endpoints and
// some engine state.
type Task struct {
	Name  string
	Unit  Unit
	Graph *TaskGraph

	inputs  []*Cable
	outputs []*Cable

	mu    sync.Mutex
	state State
}

// State returns the task's current state.
func (t *Task) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

func (t *Task) setState(s State) State {
	t.mu.Lock()
	old := t.state
	t.state = s
	t.mu.Unlock()
	return old
}

// TaskGraph is a workflow: tasks plus cables. A TaskGraph can contain a
// task whose unit runs another TaskGraph (a sub-workflow); Triana's model
// is recursive.
type TaskGraph struct {
	Name string
	// RunUUID identifies one execution of this graph; a re-run is a new
	// workflow with a fresh UUID, exactly as §V-B describes.
	RunUUID string

	mu     sync.Mutex
	tasks  []*Task
	cables []*Cable
	byName map[string]*Task
	state  State
}

// NewTaskGraph returns an empty graph.
func NewTaskGraph(name string) *TaskGraph {
	return &TaskGraph{Name: name, byName: map[string]*Task{}}
}

// AddTask adds a unit as a named task. Task names must be unique within
// the graph.
func (g *TaskGraph) AddTask(name string, u Unit) (*Task, error) {
	if name == "" {
		return nil, fmt.Errorf("triana: empty task name")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.byName[name]; dup {
		return nil, fmt.Errorf("triana: duplicate task %q", name)
	}
	t := &Task{Name: name, Unit: u, Graph: g, state: NotInitialized}
	g.tasks = append(g.tasks, t)
	g.byName[name] = t
	return t, nil
}

// MustAddTask is AddTask for graph-construction code where a failure is a
// programming error.
func (g *TaskGraph) MustAddTask(name string, u Unit) *Task {
	t, err := g.AddTask(name, u)
	if err != nil {
		panic(err)
	}
	return t
}

// Connect wires an output of from to an input of to.
func (g *TaskGraph) Connect(from, to *Task) (*Cable, error) {
	if from == nil || to == nil {
		return nil, fmt.Errorf("triana: connect with nil task")
	}
	if from.Graph != g || to.Graph != g {
		return nil, fmt.Errorf("triana: connect across graphs")
	}
	if from == to {
		return nil, fmt.Errorf("triana: self-loop on %q", from.Name)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c := &Cable{From: from, To: to, ch: make(chan any, cableCapacity)}
	g.cables = append(g.cables, c)
	from.outputs = append(from.outputs, c)
	to.inputs = append(to.inputs, c)
	return c, nil
}

// Tasks returns the tasks in insertion order.
func (g *TaskGraph) Tasks() []*Task {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Task(nil), g.tasks...)
}

// Cables returns the cables in insertion order.
func (g *TaskGraph) Cables() []*Cable {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Cable(nil), g.cables...)
}

func (g *TaskGraph) setState(s State) State {
	g.mu.Lock()
	old := g.state
	g.state = s
	g.mu.Unlock()
	return old
}

// freshRunUUID assigns a new run identity; the scheduler calls it at the
// start of every run because a re-run is a new workflow.
func (g *TaskGraph) freshRunUUID() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.RunUUID = uuid.New().String()
	return g.RunUUID
}

// HasCycle reports whether the cable graph contains a directed cycle.
// Triana permits loops in continuous mode; the scheduler rejects them in
// single-step mode where they would deadlock.
func (g *TaskGraph) HasCycle() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[*Task]int, len(g.tasks))
	var visit func(t *Task) bool
	visit = func(t *Task) bool {
		color[t] = grey
		for _, c := range t.outputs {
			switch color[c.To] {
			case grey:
				return true
			case white:
				if visit(c.To) {
					return true
				}
			}
		}
		color[t] = black
		return false
	}
	for _, t := range g.tasks {
		if color[t] == white && visit(t) {
			return true
		}
	}
	return false
}
