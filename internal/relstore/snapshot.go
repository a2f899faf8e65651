package relstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Snapshot telemetry, shared by every store in the process. The age gauge
// is the canary for snapshot leaks (a report that never calls Close pins
// version history forever); reclaims make version GC observable. Live
// snapshots and reclaims are labeled by partition: a snapshot pins every
// partition, so each open snapshot counts once under every partition
// label, and a skewed reclaim distribution shows which partitions carry
// the update-heavy workflows.
var (
	mSnapshots = telemetry.NewCounter("stampede_relstore_snapshots_total",
		"Point-in-time snapshots taken.")
	mSnapshotsLive = telemetry.NewGaugeVec("stampede_relstore_snapshots_live",
		"Snapshots currently open (pinning version history), by partition.", "partition")
	mVersionReclaims = telemetry.NewCounterVec("stampede_relstore_version_reclaims_total",
		"Dead row versions reclaimed by version GC, by partition.", "partition")
)

func init() {
	telemetry.NewGaugeFunc("stampede_relstore_snapshot_oldest_age_seconds",
		"Age of the oldest open snapshot, in seconds; 0 when none is open.",
		oldestSnapshotAge)
}

// Process-wide registry of open snapshots' start times, feeding the
// oldest-age gauge across all stores.
var (
	snapAgeMu sync.Mutex
	snapAgeT0 = make(map[*Snapshot]time.Time)
)

func oldestSnapshotAge() float64 {
	snapAgeMu.Lock()
	defer snapAgeMu.Unlock()
	var oldest time.Time
	for _, t0 := range snapAgeT0 {
		if oldest.IsZero() || t0.Before(oldest) {
			oldest = t0
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest).Seconds()
}

// Reader is the read-only query surface shared by the live Store and a
// point-in-time Snapshot, so query code can run against either.
type Reader interface {
	Select(q Query) ([]*Row, error)
	SelectOne(q Query) (*Row, error)
	Get(tableName string, id int64) (*Row, error)
	Layout(tableName string) *Layout
}

var (
	_ Reader = (*Store)(nil)
	_ Reader = (*Snapshot)(nil)
)

// Snapshot is an immutable point-in-time view across every table of every
// partition. It pins a vector of partition epochs (see Store.pinAll);
// every commit publishes in one partition with one atomic store, so a
// cross-table, cross-partition traversal can never observe a torn commit.
// Reads through a snapshot take no locks and return the stored, immutable
// row versions. A snapshot pins
// version history on every partition: Close releases it so version GC can
// reclaim superseded rows. Close is idempotent.
type Snapshot struct {
	s      *Store
	v      view
	pins   []*epochPin
	t0     time.Time
	closed atomic.Bool
}

// epochPin is one entry in a partition's pin registry: an epoch some
// reader (a Snapshot, or an in-flight Store-level read) can still observe,
// which that partition's GC horizon must therefore not pass.
type epochPin struct {
	epoch uint64
}

// Snapshot pins the newest published epoch of every partition and returns
// a consistent view of the whole store at that instant. Concurrent writers
// proceed unhindered; their changes are simply invisible to this snapshot.
func (s *Store) Snapshot() *Snapshot {
	pins := s.pinAll()
	sn := &Snapshot{
		s:    s,
		v:    makeView(s, pins),
		pins: pins,
		t0:   time.Now(),
	}
	snapAgeMu.Lock()
	snapAgeT0[sn] = sn.t0
	snapAgeMu.Unlock()
	mSnapshots.Inc()
	for _, p := range s.parts {
		p.mLive.Inc()
	}
	return sn
}

// Close releases the snapshot, unpinning its epochs for version GC.
func (sn *Snapshot) Close() {
	if sn.closed.Swap(true) {
		return
	}
	for i, p := range sn.s.parts {
		p.unpin(sn.pins[i])
		p.mLive.Dec()
	}
	snapAgeMu.Lock()
	delete(snapAgeT0, sn)
	snapAgeMu.Unlock()
}

// Select returns all rows matching the query as of the snapshot's epoch
// vector.
func (sn *Snapshot) Select(q Query) ([]*Row, error) { return sn.v.sel(q) }

// SelectOne returns the single matching row, nil when none match, and an
// error when more than one matches.
func (sn *Snapshot) SelectOne(q Query) (*Row, error) { return sn.v.selOne(q) }

// Get returns the row with the given primary key as of the snapshot's
// epoch vector, or nil when absent.
func (sn *Snapshot) Get(tableName string, id int64) (*Row, error) {
	return sn.v.get(tableName, id)
}

// Layout returns the compiled layout of a table, as Store.Layout does.
func (sn *Snapshot) Layout(tableName string) *Layout { return sn.s.Layout(tableName) }

// TableNames lists the snapshot's tables in creation order.
func (sn *Snapshot) TableNames() []string {
	return append([]string(nil), sn.v.parts[0].ts.order...)
}

// view is the read-side engine: one (table set, visibility epoch) pair per
// partition. Store reads build an ephemeral view at the newest epoch
// vector; Snapshot pins one. Both return the immutable stored versions.
type view struct {
	parts []partView
}

// partView is one partition's slice of a view. The epoch is loaded (inside
// pin) before the table set, so the table set can only be newer — a table
// created after the epoch resolves but holds no rows visible at it.
type partView struct {
	ts    *tableSet
	epoch uint64
}

func makeView(s *Store, pins []*epochPin) view {
	v := view{parts: make([]partView, len(s.parts))}
	for i, p := range s.parts {
		v.parts[i] = partView{ts: p.tables.Load(), epoch: pins[i].epoch}
	}
	return v
}

// pinnedView captures the current epoch vector and table sets for one
// Store-level read, registering each epoch in its partition's pin registry
// so version GC cannot reclaim history the view can still see while the
// read is in flight; the release func must be called when the read
// completes.
func (s *Store) pinnedView() (view, func()) {
	pins := s.pinAll()
	return makeView(s, pins), func() {
		for i, p := range s.parts {
			p.unpin(pins[i])
		}
	}
}

func (v view) get(tableName string, id int64) (*Row, error) {
	found := false
	for _, pv := range v.parts {
		t, ok := pv.ts.byName[tableName]
		if !ok {
			continue
		}
		found = true
		if c, ok := t.rows.Load(id); ok {
			if row := c.visibleAt(pv.epoch); row != nil {
				return row, nil
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("relstore: no table %s", tableName)
	}
	return nil, nil
}
