package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/dashboard"
	"repro/internal/eventlog"
	"repro/internal/loader"
	"repro/internal/mq"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/views"
)

// Fixed by the issue so numbers stay comparable across machines: never
// scaled with the core count, never tuned per workload.
const (
	shards     = 4    // loader apply shards = store partitions
	window     = 4096 // closed loop: published − committed − dropped
	sampleEach = 64   // traced pass: one line in 64 gets spans
	queueName  = "stampede"
	topic      = "stampede.#"
)

// workload is one row of the workload table in README.md.
type workload struct {
	name string
	// durable: archive.OpenDir with fsync on and eventlog Sync, else
	// NewInMemoryN and an unsynced eventlog.
	durable bool
	// tcp: PublishAsync and Subscribe over loopback TCP, as deployed; else
	// Broker.Publish and Queue.Consume in-process.
	tcp bool
	// rate > 0: open loop at this many events/s, each event timed from the
	// instant it was due. rate == 0: closed loop with a bounded window.
	rate int
	// linesPerSecond × -seconds lines are replayed in the timed region.
	linesPerSecond int
	// preloadPerSecond × -seconds lines are loaded before it, inside setup.
	preloadPerSecond int
	sinks            int  // in-process SSE subscribers beside the real viewer
	reader           bool // flat-out HTTP reader beside the writes
}

// The closed-loop line counts are sized so a run lasts about -seconds on
// the two-core sandbox the benchmark was written on.
var workloads = []workload{
	// Deployed shape at an eighth of durable capacity: the backlog cannot
	// grow, so latency is batching, flush and fsync policy, not queueing.
	{name: "steady_durable", durable: true, tcp: true, rate: 6000, linesPerSecond: 6000},
	// Durable capacity: the WAL, fsync, checkpoints and the double logging
	// (eventlog + WAL) do most of the work.
	{name: "saturate_durable", durable: true, tcp: true, linesPerSecond: 50000},
	// The same code with durability bypassed: mq/tcp, parse, validate,
	// routing and apply do the work; a log-only change must show nothing.
	{name: "saturate_memory", tcp: true, linesPerSecond: 90000},
	// Reads beside writes with mq/tcp bypassed: a write-path gain that
	// costs snapshot readers, view marshalling or fan-out shows only here.
	{name: "serve_mixed", rate: 4000, linesPerSecond: 4000, preloadPerSecond: 10000, sinks: 1000, reader: true},
}

// lines is how many stream lines a run of wl replays, preload included.
func (wl workload) lines(seconds int) int {
	return (wl.preloadPerSecond + wl.linesPerSecond) * seconds
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// wfRun is one workflow's matching state for one run: next is advanced by
// the one loader shard that owns the workflow, seenInv by the viewer.
type wfRun struct {
	*wfLines
	next    int
	seenInv int
}

// harness wires one workload's pipeline and measures it from outside: it
// holds every component the deployed binaries would, plus one timestamp
// array per boundary it can see. All instants are nanoseconds since t0.
type harness struct {
	wl      workload
	in      *input
	traced  bool
	qopts   mq.QueueOpts
	dir     string
	preload int // lines [0, preload) are loaded in setup
	hi      int // lines [preload, hi) are the timed region
	t0      time.Time

	broker  *mq.Broker
	server  *mq.Server
	pub     *mq.Client // nil on the in-process path
	sub     *mq.Client
	arch    *archive.Archive
	lg      *eventlog.Log
	vw      *views.Views
	httpSrv *http.Server
	baseURL string
	viewer  *viewer
	fan     *sinkSet

	run        map[string]*wfRun
	loaderDone chan struct{}
	stats      loader.Stats
	loaderErr  error

	due, commitAt, glassAt []int64
	tapAt, tapEnd          []int64 // traced only
	obsStart, obsEnd       []int64 // traced only; indexed by line ÷ sampleEach
	obsBatch               []int32 // traced only, likewise: which observer call committed the line
	late                   []int64 // open loop: send instant − due instant

	published  int
	tapped     atomic.Int64
	committed  atomic.Int64
	unmatched  atomic.Int64
	batches    atomic.Int32
	wake       chan struct{} // observer → closed-loop publisher
	blockedNS  int64
	publishNS  int64        // traced only
	appendNS   atomic.Int64 // traced only
	observeNS  atomic.Int64 // traced only
	backlogMax int
	ckpts      int
}

func newHarness(wl workload, in *input, seconds int, traced bool, qopts mq.QueueOpts, dir string) (*harness, error) {
	h := &harness{
		wl: wl, in: in, traced: traced, qopts: qopts, dir: dir,
		preload:    wl.preloadPerSecond * seconds,
		t0:         time.Now(),
		run:        make(map[string]*wfRun, len(in.wfs)),
		loaderDone: make(chan struct{}),
		wake:       make(chan struct{}, 1),
	}
	h.hi = wl.lines(seconds)
	if h.hi != len(in.lines) {
		return nil, fmt.Errorf("bench: %s replays %d lines, stream has %d", wl.name, h.hi, len(in.lines))
	}
	for _, w := range in.wfs {
		h.run[w.uuid] = &wfRun{wfLines: w}
	}
	h.due = make([]int64, h.hi)
	h.commitAt = make([]int64, h.hi)
	h.glassAt = make([]int64, h.hi)
	if traced {
		h.tapAt = make([]int64, h.hi)
		h.tapEnd = make([]int64, h.hi)
		sampled := h.hi/sampleEach + 1
		h.obsStart = make([]int64, sampled)
		h.obsEnd = make([]int64, sampled)
		h.obsBatch = make([]int32, sampled)
	}
	if wl.rate > 0 {
		h.late = make([]int64, 0, h.hi-h.preload)
	}
	return h, nil
}

func (h *harness) now() int64 { return int64(time.Since(h.t0)) }

func (h *harness) storeDir() string { return filepath.Join(h.dir, "store") }
func (h *harness) logDir() string   { return filepath.Join(h.dir, "eventlog") }

// setup opens the stores, starts the broker, loader, dashboard and the
// subscribers, and (serve_mixed) preloads. The time it returns is the end
// of setup_s: every preload line has been handed to the loader. The wait
// that follows, for the loader's flush timer to commit the last partial
// batches, is idle time of up to FlushEvery that lands or not by chance,
// so it is not charged.
func (h *harness) setup() (ready time.Time, err error) {
	if err := h.open(); err != nil {
		return time.Time{}, err
	}
	if h.preload > 0 {
		if err := h.publishClosed(0, h.preload); err != nil {
			return time.Time{}, err
		}
		if err := h.waitFor("preload tap", func() bool { return h.tapped.Load() >= int64(h.preload) }); err != nil {
			return time.Time{}, err
		}
	}
	ready = time.Now()
	err = h.waitFor("preload commit", func() bool { return h.committed.Load() >= int64(h.preload) })
	return ready, err
}

func (h *harness) open() error {
	var err error
	if h.wl.durable {
		h.arch, err = archive.OpenDir(h.storeDir(), relstore.Options{Partitions: shards})
		if err != nil {
			return err
		}
		h.arch.Store().SetSync(true)
	} else {
		h.arch = archive.NewInMemoryN(shards)
	}
	if h.lg, err = eventlog.Open(h.logDir(), eventlog.Options{Sync: h.wl.durable}); err != nil {
		return err
	}

	h.broker = mq.NewBroker()
	var msgs <-chan mq.Message
	if h.wl.tcp {
		if h.server, err = mq.NewServer(h.broker, "127.0.0.1:0"); err != nil {
			return err
		}
		// The loader's side, exactly as nl-load -amqp does it.
		if h.sub, err = mq.Dial(h.server.Addr()); err != nil {
			return err
		}
		if err = h.sub.DeclareQueue(queueName, true); err != nil {
			return err
		}
		if err = h.sub.Bind(queueName, topic); err != nil {
			return err
		}
		if msgs, err = h.sub.Subscribe(queueName); err != nil {
			return err
		}
		if h.pub, err = mq.Dial(h.server.Addr()); err != nil {
			return err
		}
	} else {
		q, derr := h.broker.DeclareQueue(queueName, h.qopts)
		if derr != nil {
			return derr
		}
		if err = h.broker.Bind(queueName, topic); err != nil {
			return err
		}
		msgs = q.Consume()
	}

	h.vw = views.New(views.Options{})
	ld, err := loader.New(h.arch, loader.Options{
		Shards: shards, Validate: true, Lenient: true,
		Tap: h.tap, Views: observer{h},
	})
	if err != nil {
		return err
	}
	go func() {
		defer close(h.loaderDone)
		h.stats, h.loaderErr = ld.Consume(context.Background(), msgs)
	}()

	dash := dashboard.New(query.New(h.arch))
	dash.SetViews(h.vw)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.httpSrv = &http.Server{Handler: dash}
	h.baseURL = "http://" + ln.Addr().String()
	go h.httpSrv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at teardown

	if h.viewer, err = startViewer(h); err != nil {
		return err
	}
	h.fan = startSinks(dash, h.wl.sinks)
	return nil
}

func (h *harness) publish(i int) error {
	ln := &h.in.lines[i]
	if h.pub != nil {
		return h.pub.PublishAsync(ln.Key, ln.Body)
	}
	h.broker.Publish(ln.Key, ln.Body)
	return nil
}

// publishClosed sends lines [lo, hi) keeping at most window of them in
// flight. Dropped lines leave the window too: they will never commit, and
// a publisher that waited for them would hide the loss as a hang.
func (h *harness) publishClosed(lo, hi int) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for i := lo; i < hi; i++ {
		if int64(i)-h.committed.Load() >= window {
			t := h.now()
			for int64(i)-h.committed.Load()-int64(h.broker.Stats().Dropped) >= window {
				select {
				case <-h.wake:
				case <-tick.C:
				case <-h.loaderDone:
					return fmt.Errorf("bench: loader stopped mid-run: %v", h.loaderErr)
				}
				if h.now()-t > int64(20*time.Second) {
					return errors.New("bench: pipeline stalled: no commit for 20 s with the window full")
				}
			}
			h.blockedNS += h.now() - t
		}
		t := h.now()
		h.due[i] = t
		if err := h.publish(i); err != nil {
			return err
		}
		if h.traced {
			h.publishNS += h.now() - t
		}
		h.published++
	}
	return nil
}

// publishOpen sends lines [lo, hi) on a fixed schedule regardless of how
// the pipeline is doing. Each line's clock starts at its due instant, so a
// stall charges the lines queued behind it.
func (h *harness) publishOpen(lo, hi int) error {
	start := h.now()
	interval := float64(time.Second) / float64(h.wl.rate)
	for i := lo; i < hi; {
		due := start + int64(float64(i-lo)*interval)
		t := h.now()
		if due > t {
			time.Sleep(time.Duration(due - t))
			continue
		}
		h.due[i] = due
		h.late = append(h.late, t-due)
		if err := h.publish(i); err != nil {
			return err
		}
		if h.traced {
			h.publishNS += h.now() - t
		}
		h.published++
		i++
	}
	return nil
}

// tap is loader.Options.Tap: the eventlog append the deployed loader does,
// plus (traced) the arrival stamp. The loader taps from one goroutine in
// arrival order, so with nothing dropped the n-th call is line n.
func (h *harness) tap(line []byte) error {
	if !h.traced {
		_, err := h.lg.Append(line)
		h.tapped.Add(1)
		return err
	}
	i := int(h.tapped.Load())
	t := h.now()
	_, err := h.lg.Append(line)
	t1 := h.now()
	h.appendNS.Add(t1 - t)
	if i < h.hi { // more taps than lines would be a pipeline fault; the conservation check reports it
		h.tapAt[i], h.tapEnd[i] = t, t1
	}
	h.tapped.Add(1)
	return err
}

// observer is loader.Options.Views: it stamps the commit instant of every
// event (the call happens once ApplyBatch has published the batch's
// epoch), then forwards to the real views.
type observer struct{ h *harness }

func (o observer) ObserveBatch(evs []*bp.Event) {
	h := o.h
	t0 := h.now()
	var sampled [64]int32 // a default batch of 512 holds 8 sampled lines
	ns := 0
	for _, ev := range evs {
		w := h.run[ev.Get(schema.AttrXwfID)]
		if w == nil || w.next >= len(w.lines) {
			h.unmatched.Add(1)
			continue
		}
		i := w.lines[w.next]
		w.next++
		h.commitAt[i] = t0
		if h.traced && i%sampleEach == 0 && ns < len(sampled) {
			sampled[ns] = i
			ns++
		}
	}
	if !h.traced {
		h.vw.ObserveBatch(evs)
	} else {
		batch := h.batches.Add(1)
		t1 := h.now()
		h.vw.ObserveBatch(evs)
		t2 := h.now()
		h.observeNS.Add(t2 - t1)
		for _, i := range sampled[:ns] {
			k := i / sampleEach
			h.obsStart[k], h.obsEnd[k], h.obsBatch[k] = t1, t2, batch
		}
	}
	h.committed.Add(int64(len(evs)))
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// waitFor polls cond until it holds, failing after 30 s or when the
// loader dies first.
func (h *harness) waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		select {
		case <-h.loaderDone:
			if cond() {
				return nil
			}
			return fmt.Errorf("bench: loader stopped while waiting for %s: %v", what, h.loaderErr)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// procSample is what the process counters read at one instant.
type procSample struct {
	cpuNS       int64
	mallocs     uint64
	allocBytes  uint64
	gcPauseNS   uint64
	maxRSSBytes int64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return procSample{
		cpuNS:       ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs:     ms.Mallocs,
		allocBytes:  ms.TotalAlloc,
		gcPauseNS:   ms.PauseTotalNs,
		maxRSSBytes: ru.Maxrss << 10, // Linux reports KiB
	}
}

// sampleLoop records, every 100 ms, the broker backlog high-water mark and
// each checkpoint the store completes (CheckpointStats only shows the
// newest per partition).
func (h *harness) sampleLoop(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	lastSeq := make([]uint64, shards)
	sample := func() {
		if b := h.broker.Backlog(); b > h.backlogMax {
			h.backlogMax = b
		}
		for _, cs := range h.arch.Store().CheckpointStats() {
			if cs.Taken && cs.Partition < shards && cs.Seq != lastSeq[cs.Partition] {
				lastSeq[cs.Partition] = cs.Seq
				h.ckpts++
			}
		}
	}
	for {
		select {
		case <-stop:
			sample()
			return
		case <-tick.C:
			sample()
		}
	}
}

// drain waits until every published line has been tapped or dropped, then
// ends the loader's feed the way the transport ends it (the subscriber's
// connection closes; the in-process queue is deleted) so Consume flushes
// and returns its stats.
func (h *harness) drain() error {
	if err := h.waitFor("broker to receive every publish", func() bool {
		return h.broker.Stats().Published >= uint64(h.published)
	}); err != nil {
		return err
	}
	if err := h.waitFor("loader to tap every routed line", func() bool {
		return h.tapped.Load()+int64(h.broker.Stats().Dropped) >= int64(h.published)
	}); err != nil {
		return err
	}
	if h.sub != nil {
		h.sub.Close()
	} else {
		h.broker.DeleteQueue(queueName)
	}
	<-h.loaderDone
	return h.loaderErr
}

// closeAll releases everything setup opened; safe on a partly set-up
// harness. The store and log are closed by the caller when it needs their
// Close to be a measured or checked step.
func (h *harness) closeAll() {
	if h.viewer != nil {
		h.viewer.stop()
	}
	if h.fan != nil {
		h.fan.stop()
	}
	if h.httpSrv != nil {
		h.httpSrv.Close()
	}
	if h.vw != nil {
		h.vw.Close()
	}
	if h.pub != nil {
		h.pub.Close()
	}
	if h.sub != nil {
		h.sub.Close()
	}
	if h.server != nil {
		h.server.Close()
	}
	if h.lg != nil {
		h.lg.Close()
	}
	if h.arch != nil {
		h.arch.Close()
	}
}

// dirBytes sums regular file sizes under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
