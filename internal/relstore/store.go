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
// own WAL segment chain and group-commit fsync.
//
// The write surface is the size of its one client, the archive, which only
// appends rows and rewrites columns of rows it appended: CreateTable, and
// per partition Writer.NewRow + Insert and Writer.Edit + Update. There is no delete,
// no bulk load and no way to switch a check off; Flush, SetSync, Checkpoint
// and Close manage durability. Writers prune the row version chains they
// touch (see gcAfterWrite), so history never needs a sweep; indexes carry no
// versions at all — an entry only nominates a row, whose own chain decides
// what a reader sees (see postingIndex) — so they are never pruned either.
//
// Cross-partition reads stay point-in-time: Snapshot pins a vector of
// partition epochs (see pinAll), and since every commit lives in exactly
// one partition a traversal can never observe a torn one. Primary keys are
// allocated from one shared counter per logical table, so ids are unique
// store-wide and a row's id says nothing about which partition holds it.
type Store struct {
	parts []*partition

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

// tableSet is an immutable name→table mapping plus creation order; list
// holds the same tables by creation position (Layout.tid).
type tableSet struct {
	byName map[string]*table
	order  []string
	list   []*table
}

// NewStore returns an empty single-partition in-memory store.
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
	return s
}

// NumPartitions reports how many partitions the store has.
func (s *Store) NumPartitions() int { return len(s.parts) }

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

// Writer is the write handle bound to one partition, and the store's whole
// mutation surface: the archive only ever appends rows and rewrites columns
// of rows it appended, so there is an insert, an update and nothing else.
// A workflow's rows all commit through the writer of the partition its
// uuid routes to (archive.Route), so commits serialize only against
// writes to the same partition.
type Writer struct {
	s *Store
	p *partition
}

// Writer returns the write handle for partition i.
func (s *Store) Writer(i int) Writer {
	return Writer{s: s, p: s.parts[i]}
}

// NewRow hands out an empty draft of a row of lay's table (Store.Layout):
// every column NULL until set. The draft's storage already is the stored
// row's — the partition's slabs — so Insert copies nothing.
func (w Writer) NewRow(lay *Layout) Draft { return w.p.newRow(lay) }

// Insert adds the draft's row to the writer's partition and returns its
// assigned primary key. A draft whose setters failed, that leaves a
// non-nullable column unset, or that was inserted before is refused and
// nothing is written.
func (w Writer) Insert(d *Draft) (int64, error) { return w.p.insert(w.s, d) }

// Edit hands out a draft holding the newest version of row id of lay's
// table, which must live in this writer's partition (rows never migrate):
// the slots are copied once, the caller sets the columns that change and
// passes the draft to Update.
func (w Writer) Edit(lay *Layout, id int64) Draft { return w.p.edit(lay, id) }

// Update publishes an Edit draft as the row's next version. It fails, and
// writes nothing, when a setter failed or the row was updated by someone
// else after the Edit.
func (w Writer) Update(d *Draft) error { return w.p.update(w.s, d) }

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
	lay := compile(&cp, len(s.parts[0].tables.Load().order))
	alloc, ok := s.allocs[schema.Name]
	if !ok {
		alloc = &atomic.Int64{}
		s.allocs[schema.Name] = alloc
	}
	for _, p := range s.parts {
		p.writeMu.Lock()
		ts := p.tables.Load()
		t := newTable(lay, alloc)
		next := &tableSet{
			byName: make(map[string]*table, len(ts.byName)+1),
			order:  append(append([]string(nil), ts.order...), schema.Name),
			list:   append(append([]*table(nil), ts.list...), t),
		}
		for k, v := range ts.byName {
			next.byName[k] = v
		}
		next.byName[schema.Name] = t
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

// Layout returns the compiled layout of a table — what resolves its column
// handles and what Writer.NewRow and Writer.Edit take — or nil when the
// store has no such table.
func (s *Store) Layout(tableName string) *Layout {
	if t, ok := s.parts[0].tables.Load().byName[tableName]; ok {
		return t.lay
	}
	return nil
}

// Count returns the number of live rows across all partitions. Each
// partition's table keeps a live-row counter, so this is O(partitions) and
// scan-free. A counter moves after its insert's epoch publishes, so Count
// never runs ahead of what a snapshot taken next can see. Readers
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

// checkForeignKeys verifies row's FK values. A foreign key references a
// primary key (TableSchema.validate refuses anything else), so the probe is
// a lock-free read of the referenced row's chain — in p first, where the
// archive's workflow routing puts nearly every parent, then in the other
// partitions against their newest state; rows are never deleted, so a
// parent found stays found.
func (s *Store) checkForeignKeys(p *partition, t *table, row *Row) error {
	for i, c := range t.lay.fks {
		id, null := row.intAt(c)
		if null {
			continue // null FK means "no reference", as in SQL
		}
		fk := &t.schema.ForeignKeys[i]
		ref, ok := p.tables.Load().byName[fk.RefTable]
		if !ok {
			return fmt.Errorf("relstore: %s.%s references missing table %s", t.schema.Name, fk.Column, fk.RefTable)
		}
		if !s.parentLive(p, ref, id) {
			return &FKError{
				Table: t.schema.Name, Column: fk.Column,
				RefTable: fk.RefTable, RefColumn: fk.RefColumn, Value: id,
			}
		}
	}
	return nil
}

// parentLive reports whether id is the primary key of a live row of ref's
// table, in ref (p's instance) or failing that in another partition's.
func (s *Store) parentLive(p *partition, ref *table, id int64) bool {
	if ref.liveRow(id) != nil {
		return true
	}
	for _, q := range s.parts {
		if q == p {
			continue
		}
		if refq, ok := q.tables.Load().byName[ref.schema.Name]; ok && refq.liveRow(id) != nil {
			return true
		}
	}
	return false
}

// FKError reports a foreign-key violation.
type FKError struct {
	Table, Column, RefTable, RefColumn string
	Value                              int64
}

func (e *FKError) Error() string {
	return fmt.Sprintf("relstore: %s.%s=%v has no match in %s.%s",
		e.Table, e.Column, e.Value, e.RefTable, e.RefColumn)
}
