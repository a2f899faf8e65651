package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
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
	"repro/internal/stats"
	"repro/internal/views"
	"repro/internal/wfclock"
)

// isolatedLinesPerSecond × -seconds lines feed every isolated drive: the
// steady_durable stream, whatever workload the traced pass ran, so the
// isolated numbers of two workloads are measurements of the same thing.
const isolatedLinesPerSecond = 6000

// applyBatch is the loader's default batch size: the isolated apply
// drives commit in the units the live path does.
const applyBatch = loader.DefaultBatchSize

// timeIt runs f on a quiet heap and returns its wall time and heap
// allocations per item.
func timeIt(n int, f func() error) (nsPer, allocsPer float64, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	err = f()
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	return float64(d) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), err
}

// runIsolated drives one public function of each layer from a single
// goroutine over the same lines and adds ns/event (and allocs/event where
// the issue names them) to r. It ends with the reconciliation the ROADMAP
// asks for: the sum of the per-event layer costs against the CPU the live
// run actually spent per event.
func runIsolated(r *result, seed int64, seconds int, dir string) error {
	n := isolatedLinesPerSecond * seconds
	in, err := buildInput(seed, n)
	if err != nil {
		return err
	}
	lines := in.lines
	fail := func(what string, err error) error { return fmt.Errorf("bench: isolated %s: %w", what, err) }

	// bp: parse and release, as the loader's parse stage does.
	parseNS, parseAllocs, err := timeIt(n, func() error {
		for i := range lines {
			ev, err := bp.ParseBytes(lines[i].Body)
			if err != nil {
				return err
			}
			bp.ReleaseEvent(ev)
		}
		return nil
	})
	if err != nil {
		return fail("bp.ParseBytes", err)
	}
	r.set("bp.parse_ns_per_event", parseNS, "ns")
	r.set("bp.parse_allocs_per_event", parseAllocs, "count")

	// The remaining event-level drives share one parsed copy of the lines.
	evs := make([]*bp.Event, n)
	for i := range lines {
		if evs[i], err = bp.ParseBytes(lines[i].Body); err != nil {
			return fail("bp.ParseBytes", err)
		}
	}
	batches := func(f func(batch []*bp.Event) error) error {
		for lo := 0; lo < n; lo += applyBatch {
			if err := f(evs[lo:min(lo+applyBatch, n)]); err != nil {
				return err
			}
		}
		return nil
	}

	// schema
	val, err := schema.NewValidator()
	if err != nil {
		return fail("schema.NewValidator", err)
	}
	validateNS, _, err := timeIt(n, func() error {
		for _, ev := range evs {
			if err := val.Validate(ev); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fail("schema.Validate", err)
	}
	r.set("schema.validate_ns_per_event", validateNS, "ns")

	// mq: routing alone, then the whole TCP hop with a consumer that
	// discards.
	broker := mq.NewBroker()
	q, err := broker.DeclareQueue(queueName, mq.QueueOpts{Durable: true, Capacity: n})
	if err != nil {
		return fail("mq.DeclareQueue", err)
	}
	if err := broker.Bind(queueName, topic); err != nil {
		return fail("mq.Bind", err)
	}
	received := make(chan struct{})
	count := func(ch <-chan mq.Message) {
		for k := 0; k < n; k++ {
			<-ch
		}
		received <- struct{}{}
	}
	go count(q.Consume())
	routeNS, _, _ := timeIt(n, func() error {
		for i := range lines {
			broker.Publish(lines[i].Key, lines[i].Body)
		}
		<-received
		return nil
	})
	r.set("mq.route_ns_per_msg", routeNS, "ns")

	server, err := mq.NewServer(broker, "127.0.0.1:0")
	if err != nil {
		return fail("mq.NewServer", err)
	}
	defer server.Close()
	sub, err := mq.Dial(server.Addr())
	if err != nil {
		return fail("mq.Dial", err)
	}
	defer sub.Close()
	msgs, err := sub.Subscribe(queueName)
	if err != nil {
		return fail("mq.Subscribe", err)
	}
	pub, err := mq.Dial(server.Addr())
	if err != nil {
		return fail("mq.Dial", err)
	}
	defer pub.Close()
	go count(msgs)
	tcpNS, _, err := timeIt(n, func() error {
		for i := range lines {
			if err := pub.PublishAsync(lines[i].Key, lines[i].Body); err != nil {
				return err
			}
		}
		<-received
		return nil
	})
	if err != nil {
		return fail("mq.PublishAsync", err)
	}
	r.set("mq.tcp_ns_per_msg", tcpNS, "ns")

	// eventlog: append every line and close, with and without fsync.
	appendNS := map[bool]float64{}
	for _, sync := range []bool{false, true} {
		lg, err := eventlog.Open(filepath.Join(dir, fmt.Sprintf("iso-eventlog-%t", sync)), eventlog.Options{Sync: sync})
		if err != nil {
			return fail("eventlog.Open", err)
		}
		appendNS[sync], _, err = timeIt(n, func() error {
			for i := range lines {
				if _, err := lg.Append(lines[i].Body); err != nil {
					return err
				}
			}
			return lg.Close()
		})
		if err != nil {
			return fail("eventlog.Append", err)
		}
	}
	r.set("eventlog.append_nosync_ns_per_event", appendNS[false], "ns")
	r.set("eventlog.append_sync_ns_per_event", appendNS[true], "ns")

	// loader: the whole in-memory ingest path from bytes, four shards.
	var text bytes.Buffer
	for i := range lines {
		text.Write(lines[i].Body)
		text.WriteByte('\n')
	}
	ld, err := loader.New(archive.NewInMemoryN(shards), loader.Options{Shards: shards, Validate: true, Lenient: true})
	if err != nil {
		return fail("loader.New", err)
	}
	loadNS, _, err := timeIt(n, func() error {
		st, err := ld.LoadReader(&text)
		if err == nil && st.Loaded != uint64(n) {
			err = fmt.Errorf("loaded %d of %d", st.Loaded, n)
		}
		return err
	})
	if err != nil {
		return fail("loader.LoadReader", err)
	}
	r.set("loader.load_ns_per_event", loadNS, "ns")

	// archive and relstore: the same batches into memory and into a
	// durable store with fsync on; the difference is what durability adds.
	mem := archive.NewInMemoryN(shards)
	applyNS, applyAllocs, err := timeIt(n, func() error {
		return batches(func(b []*bp.Event) error {
			_, err := mem.ApplyBatch(b)
			return err
		})
	})
	if err != nil {
		return fail("archive.ApplyBatch", err)
	}
	r.set("archive.apply_ns_per_event", applyNS, "ns")
	r.set("archive.apply_allocs_per_event", applyAllocs, "count")

	dur, err := archive.OpenDir(filepath.Join(dir, "iso-store"), relstore.Options{Partitions: shards})
	if err != nil {
		return fail("archive.OpenDir", err)
	}
	defer dur.Close()
	dur.Store().SetSync(true)
	durableNS, _, err := timeIt(n, func() error {
		return batches(func(b []*bp.Event) error {
			if _, err := dur.ApplyBatch(b); err != nil {
				return err
			}
			return dur.Flush()
		})
	})
	if err != nil {
		return fail("durable archive.ApplyBatch", err)
	}
	r.set("relstore.durable_extra_ns_per_event", durableNS-applyNS, "ns")

	ckptNS, _, err := timeIt(1, dur.Store().Checkpoint)
	if err != nil {
		return fail("relstore.Checkpoint", err)
	}
	r.set("relstore.checkpoint_ms", ckptNS/1e6, "ms")
	hashNS, _, err := timeIt(1, func() error {
		sn := mem.Snapshot()
		defer sn.Close()
		_, err := sn.Hash()
		return err
	})
	if err != nil {
		return fail("relstore.Snapshot.Hash", err)
	}
	r.set("relstore.snapshot_hash_ms", hashNS/1e6, "ms")

	// views: fold the batches in, then publish every dirty workflow once.
	// A manual clock keeps the flush ticker from publishing in between.
	vw := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0))})
	defer vw.Close()
	observeNS, _, _ := timeIt(n, func() error {
		return batches(func(b []*bp.Event) error {
			vw.ObserveBatch(b)
			return nil
		})
	})
	r.set("views.observe_iso_ns_per_event", observeNS, "ns")
	flushNS, _, _ := timeIt(len(in.wfs), func() error {
		vw.FlushNow()
		return nil
	})
	r.set("views.flush_ns_per_dirty_wf", flushNS, "ns")

	// query and dashboard: the detail path per workflow over a snapshot,
	// and the listing through the handler without a socket.
	qi := query.New(mem)
	jobsNS, _, err := timeIt(len(in.wfs), func() error {
		for _, w := range in.wfs {
			wf, err := qi.WorkflowByUUID(w.uuid)
			if err != nil || wf == nil {
				return fmt.Errorf("workflow %s: %v", w.uuid, err)
			}
			if _, err := stats.JobsReport(qi, wf.ID); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fail("stats.JobsReport", err)
	}
	r.set("query.jobs_ns_per_call", jobsNS, "ns")
	dash := dashboard.New(qi)
	dash.SetViews(vw)
	const listReqs = 200
	listNS, _, err := timeIt(listReqs, func() error {
		for k := 0; k < listReqs; k++ {
			rec := httptest.NewRecorder()
			dash.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/workflows", nil))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("GET /api/workflows: %d", rec.Code)
			}
		}
		return nil
	})
	if err != nil {
		return fail("dashboard list", err)
	}
	r.set("dashboard.list_ns_per_req", listNS, "ns")

	// Reconciliation: what the layers cost one at a time, against what the
	// live run spent. The gap is reported, not asserted.
	sum := parseNS + validateNS + applyNS + (durableNS - applyNS) + appendNS[true] + observeNS + tcpNS
	r.set("layers.sum_ns_per_event", sum, "ns")
	r.set("layers.sum_over_cpu", ratio(sum, r.Metrics["process.cpu_ns_per_event"].Value), "ratio")
	return nil
}
