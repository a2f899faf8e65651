package relstore

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Store is a set of multi-version tables, split into N workflow-routed
// partitions. Each partition follows the classic single-writer /
// many-reader MVCC shape on its own: one per-partition writer mutex
// serializes its mutations, every mutation runs at a fresh per-partition
// epoch published with one atomic store, and readers never take a lock.
// Writers on distinct partitions commit truly in parallel — each with its
// own WAL segment chain and group-commit fsync — which is what breaks the
// old store-wide single-writer wall for the loader's apply shards.
//
// Cross-partition reads stay point-in-time: Snapshot pins a vector of
// partition epochs (see pinAll), and since every commit lives in exactly
// one partition a traversal can never observe a torn one. Primary keys are
// allocated from one shared counter per logical table, so ids are unique
// store-wide and a row's id says nothing about which partition holds it.
type Store struct {
	parts []*partition

	// checkFKs can be disabled for bulk replay of already-validated data.
	checkFKs atomic.Bool

	// createMu serializes CreateTable (which swaps every partition's table
	// set) and guards allocs.
	createMu sync.Mutex
	// allocs holds the shared per-logical-table primary-key allocators;
	// every partition's instance of one table points at the same counter.
	allocs map[string]*atomic.Int64

	// dir is the backing directory of a durable store (see OpenDir); empty
	// for in-memory stores.
	dir string
	// ckptEvery is the per-partition WAL-record count that triggers an
	// automatic background checkpoint; 0 disables automatic checkpoints.
	ckptEvery uint64
}

// tableSet is an immutable name→table mapping plus creation order.
type tableSet struct {
	byName map[string]*table
	order  []string
}

// NewStore returns an empty single-partition in-memory store with
// foreign-key checking on — the drop-in equivalent of the pre-partitioning
// store.
func NewStore() *Store { return NewStoreN(1) }

// NewStoreN returns an empty in-memory store with n partitions (minimum 1).
func NewStoreN(n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{
		parts:  make([]*partition, n),
		allocs: make(map[string]*atomic.Int64),
	}
	for i := range s.parts {
		s.parts[i] = newPartition(i)
	}
	s.checkFKs.Store(true)
	return s
}

// NumPartitions reports how many partitions the store has.
func (s *Store) NumPartitions() int { return len(s.parts) }

// SetForeignKeyChecks toggles FK enforcement (on by default).
func (s *Store) SetForeignKeyChecks(on bool) { s.checkFKs.Store(on) }

// Epoch returns the sum of all partitions' published epochs: a monotonic
// version counter for the whole store. The tracing layer stamps it on
// commit spans as "the version at which this event became visible".
func (s *Store) Epoch() uint64 {
	var sum uint64
	for _, p := range s.parts {
		sum += p.epoch.Load()
	}
	return sum
}

// Epochs returns the current per-partition epoch vector. It is a
// convenience for diagnostics; unlike Snapshot it makes no atomicity
// claim across partitions.
func (s *Store) Epochs() []uint64 {
	out := make([]uint64, len(s.parts))
	for i, p := range s.parts {
		out[i] = p.epoch.Load()
	}
	return out
}

// PartitionStatus describes one live partition for operator tooling: its
// current visibility epoch and last-checkpoint high-water state (the
// on-disk counterpart is PartitionInfo / InspectDir). The health engine's
// diagnostics bundles embed this map so a triage report can say which
// partition fell behind.
type PartitionStatus struct {
	Partition            int     `json:"partition"`
	Epoch                uint64  `json:"epoch"`
	CheckpointTaken      bool    `json:"checkpoint_taken"`
	CheckpointSeq        uint64  `json:"checkpoint_seq"`
	CheckpointBytes      int64   `json:"checkpoint_bytes,omitempty"`
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds,omitempty"`
}

// PartitionMap reports the per-partition epoch vector joined with each
// partition's checkpoint state. Like Epochs it makes no cross-partition
// atomicity claim — it is a diagnostics read, not a snapshot.
func (s *Store) PartitionMap() []PartitionStatus {
	stats := s.CheckpointStats()
	out := make([]PartitionStatus, len(s.parts))
	for i, p := range s.parts {
		out[i] = PartitionStatus{Partition: i, Epoch: p.epoch.Load()}
		if i < len(stats) && stats[i].Taken {
			out[i].CheckpointTaken = true
			out[i].CheckpointSeq = stats[i].Seq
			out[i].CheckpointBytes = stats[i].Bytes
			out[i].CheckpointAgeSeconds = stats[i].Age.Seconds()
		}
	}
	return out
}

// Writer is a handle bound to one partition. Loader apply shards hold one
// writer each (shard i → partition i%N), so their commits serialize only
// against writes to the same partition.
type Writer struct {
	s *Store
	p *partition
}

// Writer returns the write handle for partition i.
func (s *Store) Writer(i int) Writer {
	return Writer{s: s, p: s.parts[i]}
}

// Partition reports which partition this writer commits to.
func (w Writer) Partition() int { return w.p.idx }

// Insert adds one row to the writer's partition and returns its assigned
// primary key. The row is copied; the caller keeps ownership of row.
func (w Writer) Insert(tableName string, row Row) (int64, error) {
	return w.p.insert(w.s, tableName, row, false)
}

// InsertOwned is Insert for callers that hand over ownership of row: the
// map is coerced in place and becomes the stored version, skipping the
// defensive copy Insert makes. The caller must not read or write row after
// the call. This is the archive's hot path — every materialised event
// builds exactly one fresh Row literal and donates it.
func (w Writer) InsertOwned(tableName string, row Row) (int64, error) {
	return w.p.insert(w.s, tableName, row, true)
}

// InsertBatch adds many rows to the writer's partition under one lock
// acquisition, one epoch, and one WAL write.
func (w Writer) InsertBatch(tableName string, rows []Row) ([]int64, error) {
	return w.p.insertBatch(w.s, tableName, rows)
}

// Update rewrites the named columns of the row with primary key id, which
// must live in this writer's partition.
func (w Writer) Update(tableName string, id int64, changes Row) error {
	return w.p.update(w.s, tableName, id, changes)
}

// Delete removes a row from this writer's partition; deleting an absent
// row is a no-op.
func (w Writer) Delete(tableName string, id int64) error {
	return w.p.delete(w.s, tableName, id)
}

// CreateTable registers a table in every partition. Each partition gets
// its own instance (disjoint rows, private indexes) sharing one schema and
// one primary-key allocator. Creating a table that already exists with an
// identical schema is a no-op, so archive initialisation is idempotent.
func (s *Store) CreateTable(schema TableSchema) error {
	if err := schema.validate(); err != nil {
		return err
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	if existing, ok := s.parts[0].tables.Load().byName[schema.Name]; ok {
		if fmt.Sprintf("%+v", *existing.schema) == fmt.Sprintf("%+v", schema) {
			return nil
		}
		return fmt.Errorf("relstore: table %s already exists with a different schema", schema.Name)
	}
	cp := schema
	alloc, ok := s.allocs[schema.Name]
	if !ok {
		alloc = &atomic.Int64{}
		s.allocs[schema.Name] = alloc
	}
	for _, p := range s.parts {
		p.writeMu.Lock()
		ts := p.tables.Load()
		next := &tableSet{
			byName: make(map[string]*table, len(ts.byName)+1),
			order:  append(append([]string(nil), ts.order...), schema.Name),
		}
		for k, v := range ts.byName {
			next.byName[k] = v
		}
		next.byName[schema.Name] = newTable(&cp, alloc)
		p.tables.Store(next)
		// Log the create while still holding writeMu, so no insert into the
		// new table can precede it in this partition's WAL.
		if w := p.wal.Load(); w != nil {
			if err := w.logCreate(&cp); err != nil {
				p.writeMu.Unlock()
				return err
			}
		}
		p.writeMu.Unlock()
	}
	return nil
}

// TableNames lists tables in creation order.
func (s *Store) TableNames() []string {
	return append([]string(nil), s.parts[0].tables.Load().order...)
}

// Count returns the number of live rows across all partitions. Each
// partition's table keeps a live-row counter, so this is O(partitions) and
// scan-free. A counter moves by one bulk add per mutation, after its epoch
// publishes, so Count never includes a partially applied batch. Readers
// that need a count exactly consistent with other reads should use
// Snapshot().Count, which tallies at the pinned epoch vector.
func (s *Store) Count(tableName string) (int, error) {
	total := 0
	for _, p := range s.parts {
		t, ok := p.tables.Load().byName[tableName]
		if !ok {
			return 0, fmt.Errorf("relstore: no table %s", tableName)
		}
		total += int(t.live.Load())
	}
	return total, nil
}

// Insert adds one row to partition 0 and returns its assigned primary key.
// Partition-aware callers should route through Writer instead.
func (s *Store) Insert(tableName string, row Row) (int64, error) {
	return s.parts[0].insert(s, tableName, row, false)
}

// InsertOwned is Writer.InsertOwned against partition 0.
func (s *Store) InsertOwned(tableName string, row Row) (int64, error) {
	return s.parts[0].insert(s, tableName, row, true)
}

// InsertBatch adds many rows to partition 0 under one lock acquisition,
// one epoch, and one WAL write — the fast path the stampede loader batches
// into. It fails atomically: on any error no row from the batch is applied.
// Because the whole batch publishes as a single epoch, a snapshot either
// sees all of the batch or none of it.
func (s *Store) InsertBatch(tableName string, rows []Row) ([]int64, error) {
	return s.parts[0].insertBatch(s, tableName, rows)
}

// pinAll pins every partition's published epoch. Every commit touches
// exactly one partition and publishes with one atomic store, so the
// resulting epoch vector holds each commit entirely or not at all.
func (s *Store) pinAll() []*epochPin {
	pins := make([]*epochPin, len(s.parts))
	for i, p := range s.parts {
		pins[i] = p.pin()
	}
	return pins
}

// checkForeignKeys verifies row's FK values. The caller holds p's writeMu,
// so a reference within the same partition is checked against a stable
// writer view. References into other partitions are probed lock-free
// against their newest published state; under the archive's workflow
// routing these are append-only parent rows (workflow, host), so the probe
// is exact in practice.
func (s *Store) checkForeignKeys(p *partition, t *table, row Row) error {
	if !s.checkFKs.Load() {
		return nil
	}
	for _, fk := range t.schema.ForeignKeys {
		v := row[fk.Column]
		if v == nil {
			continue // null FK means "no reference", as in SQL
		}
		ref, ok := p.tables.Load().byName[fk.RefTable]
		if !ok {
			return fmt.Errorf("relstore: %s.%s references missing table %s", t.schema.Name, fk.Column, fk.RefTable)
		}
		if refExists(ref, fk.RefColumn, v, true) {
			continue
		}
		found := false
		for _, q := range s.parts {
			if q == p {
				continue
			}
			if refq, ok := q.tables.Load().byName[fk.RefTable]; ok && refExists(refq, fk.RefColumn, v, false) {
				found = true
				break
			}
		}
		if !found {
			return &FKError{
				Table: t.schema.Name, Column: fk.Column,
				RefTable: fk.RefTable, RefColumn: fk.RefColumn, Value: v,
			}
		}
	}
	return nil
}

// refExists probes one table instance for a live row with col = v.
// writerView means the caller holds that partition's writeMu and may use
// the writer-unlocked index read path; otherwise the reader-safe locked
// path is used. Row-chain probes (the id fast path and the scan fallback)
// are lock-free-safe either way.
func refExists(ref *table, col string, v any, writerView bool) bool {
	if col == "id" {
		id, ok := v.(int64)
		if !ok {
			return false
		}
		c, ok := ref.rows.Load(id)
		return ok && c.liveVersion() != nil
	}
	// Try a unique constraint or index covering exactly this column.
	probe := Row{col: v}
	for i, cols := range ref.schema.Unique {
		if len(cols) == 1 && cols[0] == col {
			key := compositeKey(probe, cols)
			if writerView {
				_, ok := ref.uniques[i].liveID(key)
				return ok
			}
			_, ok := ref.uniques[i].liveIDLocked(key)
			return ok
		}
	}
	if ixn := ref.findIndex([]string{col}); ixn >= 0 {
		ix := ref.indexes[ixn]
		if ix.mi != nil {
			v, isNil := intKeyOf(probe, ix.intCol)
			if writerView {
				_, ok := ix.liveIDInt(v, isNil)
				return ok
			}
			_, ok := ix.liveIDIntLocked(v, isNil)
			return ok
		}
		key := compositeKey(probe, []string{col})
		if writerView {
			_, ok := ix.liveID(key)
			return ok
		}
		_, ok := ix.liveIDLocked(key)
		return ok
	}
	found := false
	ref.rows.Range(func(_ int64, c *rowChain) bool {
		if lv := c.liveVersion(); lv != nil && valueEq(lv.row[col], v) {
			found = true
			return false
		}
		return true
	})
	return found
}

// Get returns the row with the given primary key, or nil when absent. The
// returned row is a copy; mutating it does not affect the store.
func (s *Store) Get(tableName string, id int64) (Row, error) {
	v, release := s.pinnedView(true)
	defer release()
	return v.get(tableName, id)
}

// partitionOf finds the partition holding a live-or-recent chain for id,
// or nil. Rows never migrate between partitions, so a lock-free probe
// suffices to locate the owner before taking its writer mutex.
func (s *Store) partitionOf(tableName string, id int64) *partition {
	for _, p := range s.parts {
		if t, ok := p.tables.Load().byName[tableName]; ok {
			if _, ok := t.rows.Load(id); ok {
				return p
			}
		}
	}
	return nil
}

// Update rewrites the named columns of the row with primary key id,
// wherever it lives.
func (s *Store) Update(tableName string, id int64, changes Row) error {
	if p := s.partitionOf(tableName, id); p != nil {
		return p.update(s, tableName, id, changes)
	}
	if _, ok := s.parts[0].tables.Load().byName[tableName]; !ok {
		return fmt.Errorf("relstore: no table %s", tableName)
	}
	return fmt.Errorf("relstore: %s has no row %d", tableName, id)
}

// Delete removes a row wherever it lives; deleting an absent row is a
// no-op.
func (s *Store) Delete(tableName string, id int64) error {
	if p := s.partitionOf(tableName, id); p != nil {
		return p.delete(s, tableName, id)
	}
	if _, ok := s.parts[0].tables.Load().byName[tableName]; !ok {
		return fmt.Errorf("relstore: no table %s", tableName)
	}
	return nil
}

// GC sweeps every partition, pruning all row and posting versions that no
// live or future snapshot can observe, and returns the number reclaimed.
// Writers already prune the chains they touch as they go; GC is the full
// sweep for workloads that update hot rows and then go quiet. Partitions
// are swept one at a time, so GC never stalls more than one writer.
func (s *Store) GC() int {
	total := 0
	for _, p := range s.parts {
		total += p.gc()
	}
	return total
}

// gc sweeps one partition under its writer mutex.
func (p *partition) gc() int {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	minE := p.gcHorizon(p.epoch.Load())
	total := 0
	ts := p.tables.Load()
	for _, name := range ts.order {
		t := ts.byName[name]
		t.rows.Range(func(id int64, c *rowChain) bool {
			total += pruneChain(c, minE)
			if hv := c.head.Load(); hv != nil {
				if end := hv.end.Load(); end != 0 && end <= minE {
					t.rows.Delete(id)
					total++
				}
			}
			return true
		})
		for _, ix := range t.uniques {
			total += ix.pruneAll(minE)
		}
		for _, ix := range t.indexes {
			total += ix.pruneAll(minE)
		}
	}
	if total > 0 {
		p.mReclaims.Add(uint64(total))
	}
	return total
}

// FKError reports a foreign-key violation.
type FKError struct {
	Table, Column, RefTable, RefColumn string
	Value                              any
}

func (e *FKError) Error() string {
	return fmt.Sprintf("relstore: %s.%s=%v has no match in %s.%s",
		e.Table, e.Column, e.Value, e.RefTable, e.RefColumn)
}
