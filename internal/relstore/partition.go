package relstore

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// partition is one independently writable slice of a Store: its own writer
// mutex, epoch counter, table instances, WAL segment chain, epoch-pin
// registry and version-GC horizon. The single-writer / many-reader MVCC
// discipline the store used to apply globally now applies per partition,
// so writers on distinct partitions commit truly in parallel — each with
// its own group-commit fsync — while readers stay lock-free.
type partition struct {
	idx int
	// writeMu serializes this partition's inserts and updates (and its slice
	// of CreateTable).
	writeMu sync.Mutex
	// epoch is the partition's newest published epoch. A mutation works at
	// epoch+1 and publishes by storing the new value after all its versions
	// are linked, so a reader that loads the epoch sees all of the mutation
	// or none.
	epoch atomic.Uint64
	// tables is copy-on-write: CreateTable swaps in a whole new set, so
	// readers resolve table names with one atomic load. Every partition
	// holds its own instances of the same logical tables (shared schema and
	// id allocator, disjoint rows).
	tables atomic.Pointer[tableSet]
	wal    atomic.Pointer[walWriter] // nil for purely in-memory partitions
	// oneRow is insert's batch of one for the WAL, under writeMu: a
	// slice literal there would escape through the record, one allocation
	// per insert.
	oneRow [1]Row

	// snapMu guards the pin registry (open snapshots plus in-flight
	// Store-level reads); minLive caches the oldest pinned epoch
	// (MaxUint64 when none) as the version-GC floor. gcHorizon reads
	// minLive under snapMu too, so horizon computation serializes with
	// pin registration — see pin.
	snapMu  sync.Mutex
	pins    map[*epochPin]struct{}
	minLive atomic.Uint64

	// Checkpoint state; dir is empty unless the store is directory-backed.
	dir           string
	ckptMu        sync.Mutex // one checkpoint at a time per partition
	ckptRunning   atomic.Bool
	recsSinceCkpt atomic.Uint64
	lastCkptSeq   atomic.Uint64
	lastCkptUnix  atomic.Int64 // UnixNano of last completed checkpoint; 0 = never
	lastCkptBytes atomic.Int64
	lastCkptDurNS atomic.Int64

	// Pre-resolved per-partition telemetry children (Vec.With locks and
	// must stay off hot paths).
	mLive     *telemetry.Gauge
	mReclaims *telemetry.Counter
}

func newPartition(idx int) *partition {
	label := strconv.Itoa(idx)
	p := &partition{
		idx:       idx,
		pins:      make(map[*epochPin]struct{}),
		mLive:     mSnapshotsLive.With(label),
		mReclaims: mVersionReclaims.With(label),
	}
	p.tables.Store(&tableSet{byName: make(map[string]*table)})
	p.minLive.Store(^uint64(0))
	return p
}

// table returns the partition's instance of tableName, or an error.
func (p *partition) table(tableName string) (*table, error) {
	t, ok := p.tables.Load().byName[tableName]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %s", tableName)
	}
	return t, nil
}

// insert normalizes row, checks its unique and foreign keys, assigns the
// primary key, links the version and publishes it at a fresh epoch.
func (p *partition) insert(s *Store, tableName string, row Row) (int64, error) {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	t, err := p.table(tableName)
	if err != nil {
		return 0, err
	}
	n, err := t.normalize(row)
	if err != nil {
		return 0, err
	}
	e := p.epoch.Load() + 1
	keys := t.buildUniqueKeys(n)
	if err := t.checkUniqueKeys(keys, 0); err != nil {
		return 0, err
	}
	if err := s.checkForeignKeys(p, t, n); err != nil {
		return 0, err
	}
	id := t.alloc.Add(1)
	n["id"] = id
	t.putRowKeys(n, e, keys)
	p.epoch.Store(e)
	t.live.Add(1)
	if w := p.wal.Load(); w != nil {
		p.oneRow[0] = n
		if err := w.logInsert(t, p.oneRow[:]); err != nil {
			return id, err
		}
		p.noteRecords(s, 1)
	}
	return id, nil
}

// update rewrites the named columns of the row with primary key id, which
// must live in this partition.
func (p *partition) update(s *Store, tableName string, id int64, changes Row) error {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	t, err := p.table(tableName)
	if err != nil {
		return err
	}
	chain, ok := t.rows.Load(id)
	var old *rowVersion
	if ok {
		old = chain.liveVersion()
	}
	if old == nil {
		return fmt.Errorf("relstore: %s has no row %d", tableName, id)
	}
	merged := old.row.Clone()
	for k, v := range changes {
		if k == "id" {
			return fmt.Errorf("relstore: cannot update primary key")
		}
		ct, ok := t.colType[k]
		if !ok {
			return fmt.Errorf("relstore: table %s has no column %s", tableName, k)
		}
		cvv, err := coerce(tableName, k, ct, v)
		if err != nil {
			return err
		}
		if cvv == nil {
			nullable := false
			for _, c := range t.schema.Columns {
				if c.Name == k {
					nullable = c.Nullable
					break
				}
			}
			if !nullable {
				return fmt.Errorf("relstore: table %s: column %s may not be null", tableName, k)
			}
		}
		merged[k] = cvv
	}
	if err := t.checkUnique(merged, id); err != nil {
		return err
	}
	if err := s.checkForeignKeys(p, t, merged); err != nil {
		return err
	}
	e := p.epoch.Load() + 1
	t.supersede(chain, old, merged, e)
	p.gcAfterWrite(chain, e-1)
	p.epoch.Store(e)
	if w := p.wal.Load(); w != nil {
		if err := w.logUpdate(t, merged); err != nil {
			return err
		}
		p.noteRecords(s, 1)
	}
	return nil
}

// gcHorizon is the oldest epoch any current or future reader can pin on
// this partition: the oldest registered pin's epoch, or the last published
// epoch when none is open. minLive is read under snapMu so the computation
// serializes with pin registration: a registration is one snapMu critical
// section (epoch load + minLive publish), so it either lands before this
// read — and minLive accounts for it — or it runs entirely after, in which
// case it loads an epoch >= published and cannot observe anything pruned
// at or below the horizon returned here.
func (p *partition) gcHorizon(published uint64) uint64 {
	p.snapMu.Lock()
	m := p.minLive.Load()
	p.snapMu.Unlock()
	if m < published {
		return m
	}
	return published
}

// gcAfterWrite prunes the version chain of the row an update just rewrote,
// so hot rows do not accumulate history when no snapshot needs it. Indexes
// hold no versions and are never pruned.
func (p *partition) gcAfterWrite(c *rowChain, published uint64) {
	if n := pruneChain(c, p.gcHorizon(published)); n > 0 {
		p.mReclaims.Add(uint64(n))
	}
}

// pin loads the partition's newest published epoch and registers it as a
// floor for the version-GC horizon, in one snapMu critical section.
func (p *partition) pin() *epochPin {
	p.snapMu.Lock()
	pin := &epochPin{epoch: p.epoch.Load()}
	p.pins[pin] = struct{}{}
	if pin.epoch < p.minLive.Load() {
		p.minLive.Store(pin.epoch)
	}
	p.snapMu.Unlock()
	return pin
}

// unpin releases a pin and recomputes the GC floor.
func (p *partition) unpin(pin *epochPin) {
	p.snapMu.Lock()
	delete(p.pins, pin)
	min := ^uint64(0)
	for q := range p.pins {
		if q.epoch < min {
			min = q.epoch
		}
	}
	p.minLive.Store(min)
	p.snapMu.Unlock()
}

// noteRecords counts WAL records toward the automatic-checkpoint trigger
// and kicks off a background checkpoint when the threshold is crossed.
// Called under writeMu right after a successful WAL append.
func (p *partition) noteRecords(s *Store, n uint64) {
	if s.ckptEvery == 0 || p.dir == "" {
		return
	}
	if p.recsSinceCkpt.Add(n) >= s.ckptEvery && p.ckptRunning.CompareAndSwap(false, true) {
		go func() {
			defer p.ckptRunning.Store(false)
			// Best-effort: a failed background checkpoint leaves the WAL
			// intact and the next threshold crossing retries. The error is
			// surfaced via CheckpointStats.
			_ = p.checkpoint(s)
		}()
	}
}
