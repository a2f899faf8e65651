// Package condor simulates the Condor scheduling substrate Pegasus
// submits to: a pool of sites, each with hosts exposing execution slots,
// a schedd that queues jobs FIFO per site, and a negotiator cycle that
// introduces the matchmaking latency real pools exhibit. Jobs carry a
// modeled duration and exit code (the workload model is the caller's);
// the pool contributes queue delays, host placement and lifecycle events
// — exactly the signals Stampede's job-level statistics (queue time,
// runtime, host) are built from.
package condor

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/wfclock"
)

// HostSpec describes one execution host.
type HostSpec struct {
	Hostname string
	IP       string
	Slots    int
}

// Site is a named resource with hosts.
type Site struct {
	Name  string
	Hosts []HostSpec
}

// JobSpec is one submission: what to run, where, for how long, and with
// what outcome. Duration is in the pool clock's time.
type JobSpec struct {
	ID         string
	Executable string
	Args       string
	Site       string
	Duration   time.Duration
	ExitCode   int
}

// EventType enumerates job lifecycle events, in Condor log vocabulary.
type EventType int

const (
	EventSubmit EventType = iota
	EventExecute
	EventTerminate
)

func (t EventType) String() string {
	switch t {
	case EventSubmit:
		return "SUBMIT"
	case EventExecute:
		return "EXECUTE"
	case EventTerminate:
		return "JOB_TERMINATED"
	}
	return "UNKNOWN"
}

// Event is one job lifecycle notification.
type Event struct {
	Type     EventType
	JobID    string
	Time     time.Time
	Site     string
	Hostname string
	IP       string
	ExitCode int
}

// Handler receives events; it is called from pool goroutines and must be
// safe for concurrent use.
type Handler func(Event)

// Pool is the simulated Condor pool.
type Pool struct {
	clock wfclock.Clock
	// NegotiationDelay models the matchmaking cycle: the minimum time a
	// job waits in the queue even when slots are idle.
	negotiationDelay time.Duration

	mu      sync.Mutex
	sites   map[string]*siteState
	handler Handler
	closed  bool
	wg      sync.WaitGroup
}

type siteState struct {
	site  Site
	queue chan *queuedJob
}

type queuedJob struct {
	spec JobSpec
	done chan Event // delivers the terminate event to waiters
}

// NewPool builds a pool over the sites. The handler may be nil.
func NewPool(clock wfclock.Clock, negotiationDelay time.Duration, sites []Site, handler Handler) (*Pool, error) {
	if clock == nil {
		clock = wfclock.Real
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("condor: pool needs at least one site")
	}
	p := &Pool{
		clock:            clock,
		negotiationDelay: negotiationDelay,
		sites:            make(map[string]*siteState, len(sites)),
		handler:          handler,
	}
	for _, s := range sites {
		if len(s.Hosts) == 0 {
			return nil, fmt.Errorf("condor: site %q has no hosts", s.Name)
		}
		st := &siteState{site: s, queue: make(chan *queuedJob, 65536)}
		p.sites[s.Name] = st
		for _, h := range s.Hosts {
			slots := h.Slots
			if slots <= 0 {
				slots = 1
			}
			for i := 0; i < slots; i++ {
				p.wg.Add(1)
				go p.slotWorker(st, h)
			}
		}
	}
	return p, nil
}

// Close drains the pool: submitted jobs still queued are abandoned.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, st := range p.sites {
		close(st.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pool) emit(ev Event) {
	p.mu.Lock()
	h := p.handler
	p.mu.Unlock()
	if h != nil {
		h(ev)
	}
}

// Submit queues a job and returns a channel that delivers its terminate
// event. Submission itself emits EventSubmit.
func (p *Pool) Submit(spec JobSpec) (<-chan Event, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("condor: pool closed")
	}
	st, ok := p.sites[spec.Site]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("condor: unknown site %q", spec.Site)
	}
	qj := &queuedJob{spec: spec, done: make(chan Event, 1)}
	ev := Event{Type: EventSubmit, JobID: spec.ID, Time: p.clock.Now(), Site: spec.Site}
	p.emit(ev)
	select {
	case st.queue <- qj:
	default:
		return nil, fmt.Errorf("condor: site %q queue full", spec.Site)
	}
	return qj.done, nil
}

func (p *Pool) slotWorker(st *siteState, host HostSpec) {
	defer p.wg.Done()
	for qj := range st.queue {
		if p.negotiationDelay > 0 {
			p.clock.Sleep(p.negotiationDelay)
		}
		exec := Event{
			Type: EventExecute, JobID: qj.spec.ID, Time: p.clock.Now(),
			Site: st.site.Name, Hostname: host.Hostname, IP: host.IP,
		}
		p.emit(exec)
		if qj.spec.Duration > 0 {
			p.clock.Sleep(qj.spec.Duration)
		}
		term := Event{
			Type: EventTerminate, JobID: qj.spec.ID, Time: p.clock.Now(),
			Site: st.site.Name, Hostname: host.Hostname, IP: host.IP,
			ExitCode: qj.spec.ExitCode,
		}
		p.emit(term)
		qj.done <- term
	}
}
