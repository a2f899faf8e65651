package views_test

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/loader"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/synth"
	"repro/internal/views"
	"repro/internal/wfclock"
)

// multiTrace renders several independent synthetic workflows (failures
// and retries included) interleaved round-robin, so sharded loading
// exercises concurrent view updates across stripes.
func multiTrace(t *testing.T, workflows, jobs int, seed int64) []byte {
	t.Helper()
	type cursor struct {
		lines [][]byte
		next  int
	}
	curs := make([]*cursor, workflows)
	for i := range curs {
		tr := synth.Generate(synth.Config{
			Seed:         seed + int64(i),
			Jobs:         jobs,
			Width:        4,
			Hosts:        6,
			SlotsPerHost: 2,
			FailureRate:  0.15,
			MaxRetries:   2,
			Label:        "views-eq",
		})
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		curs[i] = &cursor{lines: bytes.SplitAfter(buf.Bytes(), []byte("\n"))}
	}
	var out bytes.Buffer
	for {
		remaining := false
		for _, c := range curs {
			for k := 0; k < 5 && c.next < len(c.lines); k++ {
				out.Write(c.lines[c.next])
				c.next++
			}
			if c.next < len(c.lines) {
				remaining = true
			}
		}
		if !remaining {
			return out.Bytes()
		}
	}
}

// canonical renders the deltas of a Views keyed by workflow uuid with the
// change sequence number zeroed (seq counts update events, which differ
// between live maintenance and a rebuild).
func canonical(t *testing.T, v *views.Views) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, d := range v.Workflows() {
		d.Seq = 0
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		out[d.UUID] = string(b)
	}
	return out
}

func requireViewsEqual(t *testing.T, live, rebuilt *views.Views) {
	t.Helper()
	lm, rm := canonical(t, live), canonical(t, rebuilt)
	if len(lm) != len(rm) {
		t.Fatalf("workflow count: live %d vs rebuilt %d", len(lm), len(rm))
	}
	for uuid, lj := range lm {
		if rj, ok := rm[uuid]; !ok {
			t.Errorf("workflow %s missing from rebuild", uuid)
		} else if lj != rj {
			t.Errorf("workflow %s diverges:\n live    %s\n rebuilt %s", uuid, lj, rj)
		}
	}
	// Hosts: identity and instance counts must be exact; busy seconds are
	// float sums whose addition order differs under sharded loading.
	lh, rh := live.Hosts(), rebuilt.Hosts()
	if len(lh) != len(rh) {
		t.Fatalf("host count: live %d vs rebuilt %d", len(lh), len(rh))
	}
	type hkey struct{ site, host, ip string }
	rmap := make(map[hkey]views.HostUtilization, len(rh))
	for _, h := range rh {
		rmap[hkey{h.Site, h.Hostname, h.IP}] = h
	}
	for _, h := range lh {
		rhv, ok := rmap[hkey{h.Site, h.Hostname, h.IP}]
		if !ok {
			t.Errorf("host %s/%s missing from rebuild", h.Site, h.Hostname)
			continue
		}
		if h.Instances != rhv.Instances {
			t.Errorf("host %s instances: live %d vs rebuilt %d", h.Hostname, h.Instances, rhv.Instances)
		}
		if math.Abs(h.BusySecs-rhv.BusySecs) > 1e-6*(1+math.Abs(h.BusySecs)) {
			t.Errorf("host %s busy: live %g vs rebuilt %g", h.Hostname, h.BusySecs, rhv.BusySecs)
		}
	}
}

// TestViewMatchesScanAfterLoad is the equality property test: live
// incremental maintenance through a sharded loader must land in exactly
// the state BuildFromSnapshot derives from the committed store.
func TestViewMatchesScanAfterLoad(t *testing.T) {
	stream := multiTrace(t, 8, 40, 41)
	arch := archive.NewInMemoryN(4)
	live := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0))})
	defer live.Close()
	ld, err := loader.New(arch, loader.Options{Shards: 4, Views: live})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ld.LoadReader(bytes.NewReader(stream)); err != nil {
		t.Fatal(err)
	}

	rebuilt := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0))})
	defer rebuilt.Close()
	sn := arch.Snapshot()
	err = rebuilt.BuildFromSnapshot(sn)
	sn.Close()
	if err != nil {
		t.Fatal(err)
	}
	requireViewsEqual(t, live, rebuilt)
}

// TestViewMatchesScanAfterCheckpointRecovery loads half the stream into a
// durable partitioned store, restarts it (checkpoint + WAL-tail
// recovery), rebuilds views from the recovered snapshot, streams the rest
// incrementally, and requires the result to equal a from-scratch rebuild
// of the final store — the views survive the PR 8 recovery path.
func TestViewMatchesScanAfterCheckpointRecovery(t *testing.T) {
	stream := multiTrace(t, 6, 30, 99)
	half := bytes.LastIndexByte(stream[:len(stream)/2], '\n') + 1

	dir := t.TempDir()
	arch, err := archive.OpenDir(dir, relstore.Options{Partitions: 4, CheckpointEvery: 512})
	if err != nil {
		t.Fatal(err)
	}
	ld, err := loader.New(arch, loader.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ld.LoadReader(bytes.NewReader(stream[:half])); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: recovery replays checkpoint images + WAL tails, then the
	// views are rebuilt from the recovered snapshot before ingest resumes.
	arch, err = archive.OpenDir(dir, relstore.Options{Partitions: 4, CheckpointEvery: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	live := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0))})
	defer live.Close()
	sn := arch.Snapshot()
	err = live.BuildFromSnapshot(sn)
	sn.Close()
	if err != nil {
		t.Fatal(err)
	}
	ld, err = loader.New(arch, loader.Options{Shards: 4, Views: live})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ld.LoadReader(bytes.NewReader(stream[half:])); err != nil {
		t.Fatal(err)
	}

	rebuilt := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0))})
	defer rebuilt.Close()
	sn2 := arch.Snapshot()
	err = rebuilt.BuildFromSnapshot(sn2)
	sn2.Close()
	if err != nil {
		t.Fatal(err)
	}
	requireViewsEqual(t, live, rebuilt)
}

// rebuiltFrom scans arch into a fresh Views, the oracle the live ones are
// held to.
func rebuiltFrom(t *testing.T, arch *archive.Archive) *views.Views {
	t.Helper()
	rebuilt := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0))})
	t.Cleanup(rebuilt.Close)
	sn := arch.Snapshot()
	defer sn.Close()
	if err := rebuilt.BuildFromSnapshot(sn); err != nil {
		t.Fatal(err)
	}
	return rebuilt
}

func snapshotHash(t *testing.T, arch *archive.Archive) string {
	t.Helper()
	sn := arch.Snapshot()
	defer sn.Close()
	h, err := sn.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestManyWritersOnePartition covers the two ways more than one goroutine
// can be pointed at a one-partition archive, whose single partState holds
// every workflow's caches behind one mutex. Run under -race.
//
// A Shards: 4 loader routes by partition, so all of it arrives through
// shard 0 in arrival order and three shards idle: nothing is lost
// (read = loaded + rejected, archive applied = loaded), the store is
// bit-identical to a width-one load, and the views equal a scan.
//
// ApplyBatch is also called without a loader (bench/isolated.go, the soak
// audit's shadow archive), and its contract lets several goroutines do so
// at once provided each workflow stays on one. That is the one
// configuration in which the mutex is actually contended: four callers, two
// workflows each, ApplyBatch then ObserveBatch in chunks. Every event
// lands, the row counts are the loader's, and the views equal a scan.
func TestManyWritersOnePartition(t *testing.T) {
	stream := multiTrace(t, 8, 40, 7)

	ref := archive.NewInMemory()
	ld, err := loader.New(ref, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ld.LoadReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	counts := func(a *archive.Archive) map[string]int {
		m := map[string]int{}
		sn := a.Snapshot()
		defer sn.Close()
		for _, table := range sn.TableNames() {
			n, err := a.Store().Count(table)
			if err != nil {
				t.Fatal(err)
			}
			m[table] = n
		}
		return m
	}

	t.Run("loader", func(t *testing.T) {
		arch := archive.NewInMemory()
		live := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0))})
		defer live.Close()
		ld, err := loader.New(arch, loader.Options{Shards: 4, Views: live})
		if err != nil {
			t.Fatal(err)
		}
		st, err := ld.LoadReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		if st.Read != want.Read || st.Loaded+st.Invalid+st.Unknown != st.Read || arch.Applied() != st.Loaded {
			t.Fatalf("%s (archive applied %d); the width-one load: %s", st.String(), arch.Applied(), want.String())
		}
		if len(st.Shards) != 4 || st.Shards[0].Applied != st.Loaded {
			t.Fatalf("shard 0 applied %d of %d loaded events; it owns the only partition", st.Shards[0].Applied, st.Loaded)
		}
		if got, w := snapshotHash(t, arch), snapshotHash(t, ref); got != w {
			t.Fatalf("store hash %s, the width-one load's is %s", got, w)
		}
		requireViewsEqual(t, live, rebuiltFrom(t, arch))
	})

	t.Run("concurrent ApplyBatch", func(t *testing.T) {
		const writers = 4
		perWF := map[string][]*bp.Event{}
		var order []string
		for _, line := range bytes.Split(bytes.TrimSpace(stream), []byte("\n")) {
			ev, err := bp.ParseBytes(line)
			if err != nil {
				t.Fatal(err)
			}
			wf := ev.Get(schema.AttrXwfID)
			if _, seen := perWF[wf]; !seen {
				order = append(order, wf)
			}
			perWF[wf] = append(perWF[wf], ev)
		}
		arch := archive.NewInMemory()
		live := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0))})
		defer live.Close()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// One goroutine per workflow at a time, as the archive's
				// contract asks; the partition is shared by all four.
				for k := w; k < len(order); k += writers {
					evs := perWF[order[k]]
					for len(evs) > 0 {
						chunk := evs[:min(16, len(evs))]
						evs = evs[len(chunk):]
						if n, err := arch.ApplyBatch(chunk); err != nil || n != len(chunk) {
							t.Errorf("ApplyBatch applied %d of %d: %v", n, len(chunk), err)
							return
						}
						live.ObserveBatch(chunk)
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if arch.Applied() != want.Loaded {
			t.Fatalf("archive applied %d events, the loader loaded %d", arch.Applied(), want.Loaded)
		}
		got := counts(arch)
		for table, n := range counts(ref) {
			if got[table] != n {
				t.Fatalf("table %s = %d rows, the loader's store has %d", table, got[table], n)
			}
		}
		requireViewsEqual(t, live, rebuiltFrom(t, arch))
	})
}

// listingEachBatch is a loader's view observer that, after folding each
// batch into its views, holds their listing to an uncached encode.
type listingEachBatch struct {
	t       *testing.T
	v       *views.Views
	batches int
}

func (o *listingEachBatch) ObserveBatch(evs []*bp.Event) {
	o.v.ObserveBatch(evs)
	o.batches++
	requireListingFresh(o.t, o.v)
}

// requireListingFresh holds v's listing, rows served from its cache where
// the workflow has not changed, to the listing encoded afresh by
// encoding/json from the same views.
func requireListingFresh(t *testing.T, v *views.Views) {
	t.Helper()
	got := v.AppendListing(nil)
	want, err := views.ListingJSON(v)
	if err != nil {
		t.Errorf("encoding/json: %v", err)
	} else if !bytes.Equal(got, want) {
		t.Errorf("listing differs from an uncached encode of the same views:\n got  %s\n want %s", got, want)
	}
}

// TestListingNeverStale takes a listing after every loader batch of a
// trace, after the views are rebuilt from the store halfway through, and
// after every batch of the rest on the rebuilt views: a cached row must
// never outlive a change to its workflow. One apply shard, so no batch
// lands between a listing and its oracle.
func TestListingNeverStale(t *testing.T) {
	stream := multiTrace(t, 6, 20, 7)
	half := bytes.LastIndexByte(stream[:len(stream)/2], '\n') + 1
	arch := archive.NewInMemory()
	defer arch.Close()
	load := func(v *views.Views, part []byte) int {
		t.Helper()
		obs := &listingEachBatch{t: t, v: v}
		ld, err := loader.New(arch, loader.Options{BatchSize: 16, Views: obs})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ld.LoadReader(bytes.NewReader(part)); err != nil {
			t.Fatal(err)
		}
		return obs.batches
	}

	live := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0))})
	defer live.Close()
	first := load(live, stream[:half])

	rebuilt := rebuiltFrom(t, arch)
	requireListingFresh(t, rebuilt)
	rest := load(rebuilt, stream[half:])
	if first < 10 || rest < 10 {
		t.Fatalf("only %d and %d batches: the listing was barely exercised", first, rest)
	}
	if !bytes.Equal(rebuilt.AppendListing(nil), rebuiltFrom(t, arch).AppendListing(nil)) {
		t.Error("the listing of views rebuilt and then maintained differs from a fresh rebuild's")
	}
}

// TestListingUnderConcurrentLoad lists from several goroutines while a
// sharded loader applies: every listing is JSON, and once the load is in,
// the rows the readers left cached are the views' current state.
func TestListingUnderConcurrentLoad(t *testing.T) {
	stream := multiTrace(t, 8, 20, 5)
	arch := archive.NewInMemoryN(4)
	defer arch.Close()
	v := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0))})
	defer v.Close()
	ld, err := loader.New(arch, loader.Options{Shards: 4, BatchSize: 32, Views: v})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for {
				select {
				case <-done:
					return
				default:
				}
				buf = v.AppendListing(buf[:0])
				if !json.Valid(buf) {
					t.Errorf("listing under load is not JSON: %s", buf)
					return
				}
			}
		}()
	}
	_, err = ld.LoadReader(bytes.NewReader(stream))
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	requireListingFresh(t, v)
}
