// Package core is the top-level Stampede facade: it assembles the
// paper's three-layer model — message bus, high-performance loader over
// the common data model, and the query interface with its analysis tools
// — into one monitoring service that a workflow engine plugs into with a
// single Appender.
//
// The typical wiring, mirroring Figure 1:
//
//	st, _ := core.Start(core.Config{})          // bus + loader + archive
//	defer st.Stop()
//	log := triana.NewStampedeLog(st.Appender()) // engine-side normalizer
//	... run workflows; events stream through the bus into the archive ...
//	st.WaitLoaded(ctx, log.Appended())          // real-time, not post-mortem
//	summary, _ := st.Statistics(log.WorkflowUUID(), true)
//
// Start is the one assembly of the live pipeline and its health engine;
// `nl-load -listen` runs it as a process, with Serve for remote engines
// and Dashboard on -http.
package core

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/analyzer"
	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/dashboard"
	"repro/internal/health"
	"repro/internal/loader"
	"repro/internal/mq"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/views"
)

// Config tunes the monitoring service.
type Config struct {
	// DatabasePath persists the archive to a store directory (created
	// with one partition per loader shard) whose WAL is fsynced on every
	// loader sync; empty keeps it in memory, one partition per shard too.
	DatabasePath string
	// BatchSize and FlushEvery tune the loader (see loader.Options). Both
	// are upper bounds: an event alone on the bus is applied and on the
	// dashboard's streams at once, whatever they say.
	BatchSize  int
	FlushEvery time.Duration
	// Shards is the loader's apply-shard count: N > 1 loads distinct
	// workflows in parallel (see loader.Options.Shards).
	Shards int
	// Lenient makes malformed or invalid events non-fatal.
	Lenient bool
	// BundleDir is where firing alerts write diagnostics bundles; empty
	// writes none (/debug/bundle still builds one on demand).
	BundleDir string
}

// The bus binding of the published deployment: one durable queue the loader
// consumes, bound to every Stampede event type.
const (
	queueName = "stampede"
	topic     = "stampede.#"
)

// Stampede is a running monitoring service.
type Stampede struct {
	broker *mq.Broker
	arch   *archive.Archive
	ldr    *loader.Loader
	views  *views.Views
	qi     *query.QI
	queue  *mq.Queue
	dash   *dashboard.Server
	health *health.Engine

	cancel context.CancelFunc
	done   chan struct{}
	stats  loader.Stats
	runErr error
}

// Start brings up the service: an in-process topic broker, a durable
// queue bound to the Stampede topic space, a loader consuming it into the
// archive and the views the dashboard streams from, and the health engine.
func Start(cfg Config) (*Stampede, error) {
	var arch *archive.Archive
	var err error
	if cfg.DatabasePath != "" {
		arch, err = archive.OpenDir(cfg.DatabasePath, relstore.Options{Partitions: cfg.Shards})
		if err != nil {
			return nil, err
		}
		arch.Store().SetSync(true)
	} else {
		arch = archive.NewInMemoryN(cfg.Shards)
	}
	vw := views.New(views.Options{})
	fail := func(err error) (*Stampede, error) {
		vw.Close()
		arch.Close()
		return nil, err
	}
	// A reopened archive already holds workflows; the views start from them.
	sn := arch.Snapshot()
	err = vw.BuildFromSnapshot(sn)
	sn.Close()
	if err != nil {
		return fail(err)
	}
	ldr, err := loader.New(arch, loader.Options{
		BatchSize:  cfg.BatchSize,
		FlushEvery: cfg.FlushEvery,
		Lenient:    cfg.Lenient,
		Shards:     cfg.Shards,
		Views:      vw,
	})
	if err != nil {
		return fail(err)
	}
	broker := mq.NewBroker()
	q, err := broker.DeclareQueue(queueName, mq.QueueOpts{Durable: true})
	if err != nil {
		return fail(err)
	}
	if err := broker.Bind(queueName, topic); err != nil {
		return fail(err)
	}
	qi := query.New(arch)
	dash := dashboard.New(qi)
	dash.SetBus(broker)
	dash.SetViews(vw)
	eng := health.Standard(health.Config{BundleDir: cfg.BundleDir, OnAlert: dash.PublishAlert},
		health.Sources{Store: arch.Store(), Broker: broker})
	dash.SetHealth(eng)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Stampede{
		broker: broker,
		arch:   arch,
		ldr:    ldr,
		views:  vw,
		qi:     qi,
		queue:  q,
		dash:   dash,
		health: eng,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		st, err := ldr.ConsumeQueue(ctx, q)
		s.stats = st
		if err != nil && ctx.Err() == nil {
			s.runErr = err
		}
	}()
	return s, nil
}

// Broker exposes the bus for additional consumers (live dashboards,
// anomaly detectors) or for a TCP server front-end.
func (s *Stampede) Broker() *mq.Broker { return s.broker }

// Health returns the node's health engine, to mount on another listener.
func (s *Stampede) Health() *health.Engine { return s.health }

// Appender returns an appender that publishes events onto the bus; hand
// it to a triana.StampedeLog or pegasus.Monitord.
func (s *Stampede) Appender() BusAppender { return BusAppender{broker: s.broker} }

// BusAppender publishes BP events to the service's broker, routing on the
// event type — the paper's AMQP appender, minus the network hop. It is a
// bp.Appender.
type BusAppender struct {
	broker *mq.Broker
}

// Append implements bp.Appender. The emission span (the event's own ts up
// to this bus handoff) is recorded engine-side: the loader's route span
// picks up from the broker enqueue time, so the two compose without wire
// context. The broker retains the body, so each event costs exactly one
// allocation: the copy out of the pooled encoding scratch.
func (a BusAppender) Append(ev *bp.Event) error {
	return ev.WithLine(func(line []byte) error {
		body := bytes.Clone(line)
		trace.Emit(body, ev.TS, ev.Get(schema.AttrXwfID))
		a.broker.Publish(ev.Type, body)
		return nil
	})
}

// WaitLoaded blocks until the loader has folded at least n events into
// the archive (or ctx ends). Producers know how many events they emitted;
// this is how tests and examples establish "the archive is caught up".
func (s *Stampede) WaitLoaded(ctx context.Context, n uint64) error {
	for {
		if s.arch.Applied() >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("core: archive at %d/%d events: %w", s.arch.Applied(), n, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Serve exposes the service's bus over TCP so engines in other processes
// can publish events to it (the remote-AMQP deployment of the paper).
// The returned address is "host:port"; call the returned stop function to
// close the listener.
func (s *Stampede) Serve(addr string) (string, func() error, error) {
	srv, err := mq.NewServer(s.broker, addr)
	if err != nil {
		return "", nil, err
	}
	return srv.Addr(), srv.Close, nil
}

// WaitQuiesced blocks until every event published to the bus so far has
// settled — applied, refused by the loader (lenient mode) or dropped by
// the full queue. Use it after a workflow engine finishes to make "the
// archive is caught up" explicit without counting events by hand.
func (s *Stampede) WaitQuiesced(ctx context.Context) error {
	for {
		published := s.broker.Stats().Published
		settled := s.arch.Applied() + s.ldr.Rejected() + s.queue.Dropped()
		if s.queue.Len() == 0 && settled >= published {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("core: %d of %d published events settled: %w",
				settled, published, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Stop shuts down the health engine and the loader and closes the
// archive, returning the load statistics.
func (s *Stampede) Stop() (loader.Stats, error) {
	s.health.Close()
	s.cancel()
	<-s.done
	err := s.runErr
	s.views.Close()
	if cerr := s.arch.Close(); err == nil {
		err = cerr
	}
	return s.stats, err
}

// workflowID resolves a UUID to the archive row id.
func (s *Stampede) workflowID(wfUUID string) (int64, error) {
	wf, err := s.qi.WorkflowByUUID(wfUUID)
	if err != nil {
		return 0, err
	}
	if wf == nil {
		return 0, fmt.Errorf("core: no workflow %s in archive", wfUUID)
	}
	return wf.ID, nil
}

// Statistics computes the stampede_statistics summary for a workflow.
func (s *Stampede) Statistics(wfUUID string, recurse bool) (*stats.Summary, error) {
	id, err := s.workflowID(wfUUID)
	if err != nil {
		return nil, err
	}
	return stats.Compute(s.qi, id, recurse)
}

// Breakdown computes the per-transformation breakdown (breakdown.txt).
func (s *Stampede) Breakdown(wfUUID string, recurse bool) ([]stats.BreakdownRow, error) {
	id, err := s.workflowID(wfUUID)
	if err != nil {
		return nil, err
	}
	return stats.Breakdown(s.qi, id, recurse)
}

// JobsReport computes the per-job report (jobs.txt).
func (s *Stampede) JobsReport(wfUUID string) ([]stats.JobRow, error) {
	id, err := s.workflowID(wfUUID)
	if err != nil {
		return nil, err
	}
	return stats.JobsReport(s.qi, id)
}

// Analyze runs the stampede_analyzer over a workflow hierarchy.
func (s *Stampede) Analyze(wfUUID string) (*analyzer.Report, error) {
	id, err := s.workflowID(wfUUID)
	if err != nil {
		return nil, err
	}
	return analyzer.Analyze(s.qi, id, true)
}

// Dashboard returns the live web dashboard, with the service's bus wired
// in so the status page shows broker traffic and drop counts alongside
// workflow state, its views so the listing and the /api/stream endpoints
// are served from them, and its health engine, whose alert transitions
// reach those streams as "health" frames.
func (s *Stampede) Dashboard() *dashboard.Server { return s.dash }
