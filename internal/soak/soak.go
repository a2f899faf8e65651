// Package soak runs scenario-driven end-to-end soaks of the monitoring
// pipeline: a synth-built scenario stream is paced through the in-process
// broker into a sharded lenient loader feeding the relational archive,
// with the scenario's fault plan (injected drops, malformed lines, slow
// consumers, a mid-run loader restart) applied on the way. Because the
// stream is deterministic and fully annotated, the run can be audited
// event for event afterwards — see report.go.
package soak

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/dashboard"
	"repro/internal/eventlog"
	"repro/internal/health"
	"repro/internal/loader"
	"repro/internal/mq"
	"repro/internal/query"
	"repro/internal/synth"
	"repro/internal/views"
)

// Options tunes a soak run.
type Options struct {
	// Shards is the loader's apply parallelism (0 = 1, a pipeline of width one).
	Shards int
	// Speedup divides the scenario's planned publish offsets: 1 replays in
	// real time, 10 replays ten times faster, 0 publishes flat out with no
	// pacing (tests; the knee is not measurable then).
	Speedup float64
	// SampleEvery is the throughput sampling interval (0 = 200ms).
	SampleEvery time.Duration
	// EventlogDir, when non-empty, tees every line the loader ingests
	// (malformed included) into an event log at this directory, and the
	// report's shadow audit replays from that log — the durable record of
	// the run — instead of re-synthesizing the stream. Pre-existing
	// segment files in the directory are removed first so each run's log
	// is self-contained.
	EventlogDir string
	// SLO, when non-nil, attaches a health engine to the run: burn-rate
	// objectives are evaluated on a wall-clock ticker while the stream
	// plays, alert transitions land in the report's slo section, and any
	// alert reaching Firing captures a diagnostics bundle.
	SLO *SLOOptions
}

// SLOOptions tunes the run's health engine. Ingest freshness is measured
// in event time — published watermark minus the run archive's applied
// watermark — so it is meaningful at any Speedup.
type SLOOptions struct {
	// Every is the evaluation tick (0 = 50ms wall).
	Every time.Duration
	// BundleDir is where a firing alert writes bundle-<id>.tar.gz
	// (empty: no bundle files, alert lifecycle still fully evaluated).
	BundleDir string
	// Objectives overrides the soak default set: a single short-window
	// ingest-freshness objective sized for runs lasting seconds.
	Objectives []health.Objective
	// FreshnessThreshold is the event-time lag in seconds the default
	// freshness objective tolerates (0 = 5s).
	FreshnessThreshold float64
}

// soakObjectives is the default SLO set for a soak run. The windows are
// deliberately tiny — a soak lasts seconds, not the minutes the
// production DefaultObjectives assume — so a sustained ingest stall
// inside the run walks the full pending → firing → resolved lifecycle.
func soakObjectives(threshold float64) []health.Objective {
	if threshold == 0 {
		threshold = 5
	}
	return []health.Objective{{
		Name: "ingest-freshness", Severity: "page", Signal: health.SigFreshnessLag,
		Help:      "Applied watermark must track the published stream (event time).",
		Threshold: threshold, Budget: 0.1, BurnRate: 2,
		Fast: 1500 * time.Millisecond, Slow: 4 * time.Second,
		For: 300 * time.Millisecond, ClearFor: 500 * time.Millisecond,
		GateReady: true,
	}}
}

// SLORun is what the run's health engine observed, summarized for the
// report after the post-drain settle.
type SLORun struct {
	Objectives  int            // objectives installed
	Fired       int            // transitions into Firing
	Resolved    int            // transitions out of Firing
	Canceled    int            // pendings that cleared before their For
	StillFiring []string       // objectives firing when the run ended
	MaxBurnSLO  string         // objective with the highest fast burn
	MaxBurn     float64        // that burn rate
	Bundles     []string       // diagnostics bundle IDs captured
	BundleDir   string         // where their files were written ("" = memory only)
	WentUnready bool           // a ready-gating alert fired mid-run
	ReadyAtEnd  bool           // engine readiness after the settle
	Transitions []health.Alert // the retained transition history
}

// Sample is one throughput observation.
type Sample struct {
	Offset    float64 // seconds since publish start (wall)
	Offered   float64 // scenario offered rate at the publish cursor, events/s
	Published float64 // measured publish rate over the window, events/s (wall)
	Applied   float64 // measured archive apply rate over the window, events/s (wall)
}

// Result is everything a soak run measured; BuildReport audits it.
type Result struct {
	Stream *synth.Stream
	Arch   *archive.Archive

	Published    int    // lines actually handed to the broker
	NaturalDrops uint64 // broker queue-overflow drops (not injected ones)
	LoaderRuns   int    // 1, or 2 when the fault plan restarted the loader
	Stats        loader.Stats
	Applied      uint64 // archive's own applied-events counter
	Samples      []Sample
	WallSeconds  float64
	// Eventlog is the run's ingest log when Options.EventlogDir was set
	// (flushed, still open for reading; the caller closes it).
	Eventlog *eventlog.Log
	// AllocsPerEvent is heap allocations per applied event across the whole
	// run (publisher included) — the end-to-end analogue of the hot-path
	// allocation ceiling.
	AllocsPerEvent float64
	// SLO is the health engine's summary when Options.SLO was set.
	SLO *SLORun

	// Push-serving results, populated when the scenario sets Subscribers:
	// the run attaches that many SSE clients to the dashboard stream
	// endpoint, fed by materialized views maintained in the apply path.
	Subscribers   int
	SSEEvents     uint64 // SSE frames received across all subscribers
	SSESnapshots  uint64 // snapshot/resync frames among them
	ViewWorkflows int    // workflows in the materialized view at drain
	ViewHosts     int    // hosts in the materialized view at drain
}

const soakQueue = "soak"

// Run builds the scenario stream and drives it through
// mq -> loader -> archive, honouring the fault plan. It returns once the
// queue has fully drained and every loader has flushed.
func Run(sc *synth.Scenario, durationSeconds float64, opts Options) (*Result, error) {
	stream, err := synth.BuildStream(sc, durationSeconds)
	if err != nil {
		return nil, err
	}
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	if opts.SampleEvery == 0 {
		opts.SampleEvery = 200 * time.Millisecond
	}

	broker := mq.NewBroker()
	qcap := sc.Faults.QueueCapacity
	q, err := broker.DeclareQueue(soakQueue, mq.QueueOpts{Capacity: qcap, Durable: true})
	if err != nil {
		return nil, err
	}
	if err := broker.Bind(soakQueue, "stampede.#"); err != nil {
		return nil, err
	}

	// One store partition per apply shard: shard routing and partition
	// routing use the same workflow-uuid hash, so each shard commits
	// through its own partition's writer mutex, epoch and (when durable)
	// WAL segment — the soak exercises the same multi-writer layout the
	// partitioned-store benches measure.
	arch := archive.NewInMemoryN(opts.Shards)
	res := &Result{Stream: stream, Arch: arch, LoaderRuns: 1}

	// Health engine: evaluates the run's SLOs on a wall-clock ticker while
	// the stream plays. Freshness is event time — the max TS handed to the
	// broker versus this run's archive watermark.
	var eng *health.Engine
	var pubWM atomic.Int64  // max published event TS, unix nanos
	var sloDone atomic.Bool // run over: freshness is moot, signal goes absent
	var wentUnready atomic.Bool
	if opts.SLO != nil {
		every := opts.SLO.Every
		if every == 0 {
			every = 50 * time.Millisecond
		}
		eng = health.New(health.Config{
			Every:     every,
			BundleDir: opts.SLO.BundleDir,
			OnAlert: func(a health.Alert) {
				if a.State == "firing" && !eng.Ready() {
					wentUnready.Store(true)
				}
			},
		})
		defer eng.Close()
		eng.RegisterStandard(health.Sources{
			Store:  arch.Store(),
			Broker: broker,
			FreshnessLag: health.WatermarkLagSignal(
				func() (time.Time, bool) {
					if sloDone.Load() {
						return time.Time{}, false
					}
					ns := pubWM.Load()
					if ns == 0 {
						return time.Time{}, false
					}
					return time.Unix(0, ns).UTC(), true
				},
				func() (time.Time, bool) {
					// Published but nothing applied yet: maximal lag.
					ts, _ := arch.Watermark()
					return ts, true
				},
			),
		})
		objs := opts.SLO.Objectives
		if objs == nil {
			objs = soakObjectives(opts.SLO.FreshnessThreshold)
		}
		if _, aerr := eng.AddObjectives(objs...); aerr != nil {
			return nil, aerr
		}
		eng.Start()
	}

	// Loader lifecycle. Each run is a fresh Loader on the same archive (a
	// real restart keeps the database); stats from every run are summed.
	type runDone struct {
		stats loader.Stats
		err   error
	}
	doneCh := make(chan runDone, 2)
	lopts := loader.Options{Shards: opts.Shards, Lenient: true}
	if opts.EventlogDir != "" {
		lg, lerr := openRunLog(opts.EventlogDir)
		if lerr != nil {
			return nil, lerr
		}
		res.Eventlog = lg
		// One tap shared by every loader generation: a restart replaces
		// the loader, not the log (Append serializes internally).
		lopts.Tap = func(line []byte) error {
			_, terr := lg.Append(line)
			return terr
		}
	}
	// Push serving: when the scenario asks for subscribers, materialized
	// views are maintained in the loader's apply path, an in-process
	// dashboard serves them, and N SSE clients drive the real stream
	// handler — ServeHTTP onto counting sinks, so thousands of subscribers
	// cost no sockets.
	var vw *views.Views
	var subCancel context.CancelFunc
	var subWG sync.WaitGroup
	var sinks []*sseSink
	if sc.Subscribers > 0 {
		vw = views.New(views.Options{})
		lopts.Views = vw
		srv := dashboard.New(query.New(arch))
		srv.SetViews(vw)
		var subCtx context.Context
		subCtx, subCancel = context.WithCancel(context.Background())
		defer subCancel() // also covers error returns before the drain
		for i := 0; i < sc.Subscribers; i++ {
			sink := newSSESink()
			sinks = append(sinks, sink)
			subWG.Add(1)
			go func() {
				defer subWG.Done()
				req, rerr := http.NewRequestWithContext(subCtx, http.MethodGet, "/api/stream/workflows", nil)
				if rerr != nil {
					return
				}
				srv.ServeHTTP(sink, req)
			}()
		}
	}

	spawn := func(msgs <-chan mq.Message) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			ld, lerr := loader.New(arch, lopts)
			if lerr != nil {
				doneCh <- runDone{err: lerr}
				return
			}
			st, cerr := ld.Consume(context.Background(), msgs)
			doneCh <- runDone{stats: st, err: cerr}
		}()
		return done
	}

	// Fault-plan thresholds, in units of messages forwarded to the loader.
	toPublish := stream.Acct.ToPublish
	restartAt := -1
	if lr := sc.Faults.LoaderRestart; lr != nil {
		restartAt = int(lr.AtFraction * float64(toPublish))
	}
	slowStart, slowEnd, slowDelay := -1, -1, time.Duration(0)
	if sl := sc.Faults.SlowConsumer; sl != nil && sl.DelayMS > 0 {
		slowStart = int(sl.StartFraction * float64(toPublish))
		slowEnd = int(sl.EndFraction * float64(toPublish))
		slowDelay = time.Duration(sl.DelayMS * float64(time.Millisecond))
	}

	// Forwarder: drains the queue, applies the slow-consumer stall, and on
	// the restart threshold closes the current loader's feed (which makes
	// it flush and exit cleanly) and spawns a replacement. Closing rather
	// than cancelling is what keeps the accounting exact: every message
	// read from the queue is handed to some loader.
	in := q.Consume()
	spawns := make(chan int, 1)
	out := make(chan mq.Message, 256)
	cur := spawn(out)
	go func() {
		n := 0
		nspawns := 1
		for m := range in {
			if n == restartAt {
				if eng != nil {
					eng.Recorder().Note("loader", "restart at message %d of %d", n, toPublish)
				}
				close(out)
				// Wait for the outgoing loader to drain and flush before
				// its replacement starts: a real restart has downtime, and
				// the serialization keeps ingest a total order — without
				// it, the two generations' event-log taps interleave and
				// the log order diverges from per-workflow apply order.
				<-cur
				out = make(chan mq.Message, 256)
				cur = spawn(out)
				nspawns++
			}
			if n >= slowStart && n < slowEnd {
				time.Sleep(slowDelay)
			}
			out <- m
			n++
		}
		close(out)
		spawns <- nspawns
	}()

	// Sampler: periodic offered/published/applied rates for the knee.
	var publishedAtomic atomic.Uint64
	var cursorAtomic atomic.Uint64 // index into stream.Lines, for offered rate
	stopSample := make(chan struct{})
	sampleDone := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(sampleDone)
		tick := time.NewTicker(opts.SampleEvery)
		defer tick.Stop()
		prevPub, prevApp := uint64(0), uint64(0)
		prevT := start
		for {
			select {
			case <-stopSample:
				return
			case now := <-tick.C:
				dt := now.Sub(prevT).Seconds()
				if dt <= 0 {
					continue
				}
				pub, app := publishedAtomic.Load(), arch.Applied()
				cur := int(cursorAtomic.Load())
				if cur >= len(stream.Lines) {
					cur = len(stream.Lines) - 1
				}
				offered := 0.0
				if cur >= 0 {
					offered = stream.Plan.RateAt(stream.Lines[cur].At)
				}
				res.Samples = append(res.Samples, Sample{
					Offset:    now.Sub(start).Seconds(),
					Offered:   offered,
					Published: float64(pub-prevPub) / dt,
					Applied:   float64(app-prevApp) / dt,
				})
				prevPub, prevApp, prevT = pub, app, now
			}
		}
	}()

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Publisher: paced by the plan (divided by Speedup), injected-drop
	// lines are discarded here — they never reach the broker, exactly as
	// the annotation promises.
	for i := range stream.Lines {
		ln := &stream.Lines[i]
		cursorAtomic.Store(uint64(i))
		if opts.Speedup > 0 {
			target := ln.At / opts.Speedup
			for {
				ahead := target - time.Since(start).Seconds()
				if ahead <= 0.0005 {
					break
				}
				time.Sleep(time.Duration(ahead * 0.5 * float64(time.Second)))
			}
		}
		if ln.Drop {
			continue
		}
		broker.Publish(ln.Key, ln.Body)
		res.Published++
		publishedAtomic.Store(uint64(res.Published))
		if eng != nil && !ln.TS.IsZero() {
			if ns := ln.TS.UnixNano(); ns > pubWM.Load() {
				pubWM.Store(ns)
			}
		}
	}

	// Drain: deleting the queue closes the delivery channel; messages
	// already buffered remain readable, so the forwarder hands every last
	// one to the loader before its range loop ends.
	res.NaturalDrops = q.Dropped()
	broker.DeleteQueue(soakQueue)

	nspawns := <-spawns
	res.LoaderRuns = nspawns
	var firstErr error
	for i := 0; i < nspawns; i++ {
		d := <-doneCh
		if d.err != nil && firstErr == nil {
			firstErr = d.err
		}
		res.Stats.Read += d.stats.Read
		res.Stats.Loaded += d.stats.Loaded
		res.Stats.Invalid += d.stats.Invalid
		res.Stats.Unknown += d.stats.Unknown
		res.Stats.Malformed += d.stats.Malformed
		res.Stats.Elapsed += d.stats.Elapsed
	}
	close(stopSample)
	<-sampleDone
	res.WallSeconds = time.Since(start).Seconds()
	res.Applied = arch.Applied()

	// Push-serving drain: flush the last coalesced deltas, let every
	// subscriber's handler unwind, then total what the clients received.
	if vw != nil {
		res.Subscribers = sc.Subscribers
		res.ViewWorkflows = len(vw.Workflows())
		res.ViewHosts = len(vw.Hosts())
		vw.FlushNow()
		subCancel()
		subWG.Wait()
		for _, s := range sinks {
			res.SSEEvents += s.events.Load()
			res.SSESnapshots += s.snapshots.Load()
		}
		vw.Close()
	}

	// SLO settle: ingest is over, so the freshness signal goes absent
	// (clean) and any alert the run provoked gets its ClearFor to resolve.
	// A bounded wait, not an unbounded one: a still-firing alert after the
	// settle is exactly what the report's slo check must surface.
	if eng != nil {
		sloDone.Store(true)
		deadline := time.Now().Add(5 * time.Second)
		for (eng.FiringCount() > 0 || eng.PendingCount() > 0) && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		slo := &SLORun{
			Objectives:  len(eng.Objectives()),
			Bundles:     eng.Bundles(),
			BundleDir:   opts.SLO.BundleDir,
			WentUnready: wentUnready.Load(),
			ReadyAtEnd:  eng.Ready(),
			Transitions: eng.Recent(),
		}
		for _, a := range slo.Transitions {
			switch a.State {
			case "firing":
				slo.Fired++
			case "resolved":
				slo.Resolved++
			case "canceled":
				slo.Canceled++
			}
		}
		for _, a := range eng.Active() {
			if a.State == "firing" {
				slo.StillFiring = append(slo.StillFiring, a.SLO)
			}
		}
		slo.MaxBurnSLO, slo.MaxBurn = eng.MaxBurn()
		res.SLO = slo
		eng.Close()
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	if res.Applied > 0 {
		res.AllocsPerEvent = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Applied)
	}
	if res.Eventlog != nil {
		if ferr := res.Eventlog.Flush(); ferr != nil && firstErr == nil {
			firstErr = ferr
		}
	}
	if firstErr != nil {
		return res, fmt.Errorf("soak: loader: %w", firstErr)
	}
	return res, nil
}

// sseSink is the in-process SSE client the soak attaches: a
// ResponseWriter + Flusher that counts frames instead of writing to a
// socket. One writeSSE frame arrives as one Write call, but the counters
// scan for markers rather than assume it.
type sseSink struct {
	hdr       http.Header
	events    atomic.Uint64
	snapshots atomic.Uint64
}

func newSSESink() *sseSink { return &sseSink{hdr: make(http.Header)} }

func (s *sseSink) Header() http.Header { return s.hdr }
func (s *sseSink) WriteHeader(int)     {}
func (s *sseSink) Flush()              {}

func (s *sseSink) Write(p []byte) (int, error) {
	s.events.Add(uint64(bytes.Count(p, []byte("event: "))))
	s.snapshots.Add(uint64(bytes.Count(p, []byte("event: snapshot\n"))) +
		uint64(bytes.Count(p, []byte("event: resync\n"))))
	return len(p), nil
}

// openRunLog prepares a fresh event log for one soak run: the directory
// is created if needed and any segments from a previous run are removed,
// so the log afterwards describes exactly this run.
func openRunLog(dir string) (*eventlog.Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	old, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return nil, err
	}
	for _, p := range old {
		if err := os.Remove(p); err != nil {
			return nil, err
		}
	}
	return eventlog.Open(dir, eventlog.Options{})
}
