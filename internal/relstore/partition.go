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
	oneRow [1]*Row

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

// tableOf returns the partition's instance of the table lay was compiled
// for, or an error when lay is not one of this store's layouts.
func (p *partition) tableOf(lay *Layout) (*table, error) {
	if lay == nil {
		return nil, fmt.Errorf("relstore: no layout (Store.Layout of a table that does not exist)")
	}
	if ts := p.tables.Load(); lay.tid < len(ts.list) && ts.list[lay.tid].lay == lay {
		return ts.list[lay.tid], nil
	}
	return nil, fmt.Errorf("relstore: the layout of table %s belongs to another store", lay.schema.Name)
}

// newRow hands out an empty draft of a row of lay's table, its storage
// carved from this partition's slabs.
func (p *partition) newRow(lay *Layout) Draft {
	t, err := p.tableOf(lay)
	if err != nil {
		return Draft{err: err}
	}
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	return Draft{row: t.newRow()}
}

// edit hands out a draft holding a copy of row id's newest version, which
// must live in this partition. The copy remembers the version it was made
// from; update refuses it if the row has moved on since.
func (p *partition) edit(lay *Layout, id int64) Draft {
	t, err := p.tableOf(lay)
	if err != nil {
		return Draft{err: err}
	}
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	old := t.liveRow(id)
	if old == nil {
		return Draft{err: fmt.Errorf("relstore: %s has no row %d", lay.schema.Name, id)}
	}
	row := t.newRow()
	row.copySlots(old)
	row.prev.Store(old)
	return Draft{row: row}
}

// insert checks the draft's required columns, unique and foreign keys,
// assigns the primary key, links the version and publishes it at a fresh
// epoch. A draft that fails any check leaves no trace: no id, no epoch, no
// WAL record.
func (p *partition) insert(s *Store, d *Draft) (int64, error) {
	if d.err != nil {
		return 0, d.err
	}
	row := d.row
	if row == nil || row.begin != 0 || row.id != 0 {
		return 0, fmt.Errorf("relstore: Insert takes a draft from NewRow, once")
	}
	t, err := p.tableOf(row.slab.lay)
	if err != nil {
		return 0, err
	}
	if err := row.missingRequired(); err != nil {
		return 0, err
	}
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	e := p.epoch.Load() + 1
	keys := t.buildUniqueKeys(row, nil)
	if err := t.checkUnique(row, 0); err != nil {
		return 0, err
	}
	if err := s.checkForeignKeys(p, t, row); err != nil {
		return 0, err
	}
	id := t.alloc.Add(1)
	row.id = id
	t.putRowKeys(row, e, keys)
	p.epoch.Store(e)
	t.live.Add(1)
	if w := p.wal.Load(); w != nil {
		p.oneRow[0] = row
		if err := w.logInsert(t, p.oneRow[:]); err != nil {
			return id, err
		}
		p.noteRecords(s, 1)
	}
	return id, nil
}

// update publishes an edit draft as its row's next version.
func (p *partition) update(s *Store, d *Draft) error {
	if d.err != nil {
		return d.err
	}
	row := d.row
	if row == nil || row.begin != 0 || row.id == 0 {
		return fmt.Errorf("relstore: Update takes a draft from Edit, once")
	}
	t, err := p.tableOf(row.slab.lay)
	if err != nil {
		return err
	}
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	chain, _ := t.rows.Load(row.id)
	old := row.prev.Load()
	if chain == nil || chain.liveVersion() != old {
		return fmt.Errorf("relstore: %s row %d changed after Edit", t.schema.Name, row.id)
	}
	keys := t.buildUniqueKeys(row, old)
	if err := t.checkUnique(row, row.id); err != nil {
		return err
	}
	if err := s.checkForeignKeys(p, t, row); err != nil {
		return err
	}
	e := p.epoch.Load() + 1
	t.supersede(chain, old, row, e, keys)
	p.gcAfterWrite(chain, e-1)
	p.epoch.Store(e)
	if w := p.wal.Load(); w != nil {
		if err := w.logUpdate(t, row); err != nil {
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
