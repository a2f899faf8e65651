package relstore

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// table holds one partition's rows of one TableSchema as multi-version
// chains plus posting lists for unique constraints and secondary indexes. Visibility is a
// property of rows only: a row's version chain decides what a reader at an
// epoch sees, and an index entry is a hint — "row id held this key at some
// epoch" — that is only ever added and that every reader re-checks against
// the row (see postingIndex). All mutation is serialized by the partition's
// writer mutex; readers never lock. Every structure a reader can reach is
// either immutable after publication or published through an atomic
// pointer/uint store, so readers race-freely observe a consistent prefix of
// history at their pinned epoch.
type table struct {
	schema *TableSchema
	lay    *Layout // shared by every partition's instance of the table
	rows   rowMap  // id -> *rowChain, see rowmap.go
	// alloc is the primary-key allocator, shared by every partition's
	// instance of one logical table so ids are unique store-wide and —
	// crucially — assigned in call order under sequential replay, which is
	// what keeps Snapshot.Hash independent of the partition count.
	alloc   *atomic.Int64
	live    atomic.Int64 // rows visible at the newest epoch (O(1) Store.Count)
	uniques []*postingIndex
	indexes []*postingIndex

	// Writer-owned scratch, valid only between two writes under writeMu:
	// composite-key build buffers and the per-insert unique-key slice,
	// reused so the common insert allocates no key material at all (keys
	// are interned as strings only when a never-seen key value appears).
	keyBuf   []byte
	valBuf   []byte
	ukeys    [][]byte
	ubuckets []*postingBucket // buckets for ukeys, resolved by buildUniqueKeys

	// Rows (with their slots, see rowSlab) and posting nodes are
	// slab-allocated in writer-owned chunks: the loader inserts millions of
	// rows whose chains live forever, so paying one allocation per chunk
	// instead of one per node is pure win. Tradeoff: the GC can only reclaim
	// a whole slab, so a chunk in which even one node is live pins its
	// siblings. Insert-heavy archive tables keep nearly every node live
	// anyway; workloads that churn rows should size GC expectations
	// accordingly.
	slab       *rowSlab // the chunk newRow carves from
	slabUsed   int      // rows of slab handed out
	nodeSlab   []postingNode
	bucketSlab []postingBucket
}

// slabSize is the node-slab chunk length (see the slab fields above).
const slabSize = 256

// newRow carves an unpublished row with every column NULL out of the
// table's row slab. A table's first slab holds a few rows and each next one
// twice as many, up to slabSize, so the tables that stay tiny (workflow,
// host) do not each pin a full chunk in every partition. Writer-only.
func (t *table) newRow() *Row {
	if t.slab == nil || t.slabUsed == len(t.slab.rows) {
		n := 8
		if t.slab != nil {
			n = min(2*len(t.slab.rows), slabSize)
		}
		t.slab = &rowSlab{
			lay:   t.lay,
			rows:  make([]Row, n),
			words: make([]uint64, n*t.lay.nWords),
			strs:  make([]string, n*t.lay.nStrs),
		}
		t.slabUsed = 0
	}
	r := &t.slab.rows[t.slabUsed]
	r.slab = t.slab
	r.w0, r.s0 = uint32(t.slabUsed*t.lay.nWords), uint32(t.slabUsed*t.lay.nStrs)
	r.null = t.lay.all
	t.slabUsed++
	return r
}

// rowChain is the per-row version list, newest version first (see Row for
// what makes a version visible).
type rowChain struct {
	head atomic.Pointer[Row]
}

// visibleAt returns the version of this chain visible at epoch e, or nil.
// The chain is ordered newest first, so the first version with begin <= e
// decides: either it is visible at e or the row does not exist at e (any
// older version ended no later than this one began).
func (c *rowChain) visibleAt(e uint64) *Row {
	for v := c.head.Load(); v != nil; v = v.prev.Load() {
		if v.begin > e {
			continue
		}
		if end := v.end.Load(); end == 0 || end > e {
			return v
		}
		return nil
	}
	return nil
}

// liveVersion returns the newest un-ended version — the writer's view.
func (c *rowChain) liveVersion() *Row {
	if v := c.head.Load(); v != nil && v.end.Load() == 0 {
		return v
	}
	return nil
}

// liveRow returns the newest version of row id — the writer's view, which
// the unique check and foreign-key probes decide on — or nil when the table
// holds no such row. Lock-free, so a writer may probe another partition.
func (t *table) liveRow(id int64) *Row {
	if c, ok := t.rows.Load(id); ok {
		return c.liveVersion()
	}
	return nil
}

// pruneChain drops versions no reader at epoch >= minE can reach: every
// version below the newest one whose begin <= minE. Dropped versions stay
// internally linked, so a reader paused mid-walk finishes safely. Returns
// the number of versions reclaimed. Writer-only.
func pruneChain(c *rowChain, minE uint64) int {
	v := c.head.Load()
	for v != nil && v.begin > minE {
		v = v.prev.Load()
	}
	if v == nil {
		return 0
	}
	n := 0
	for old := v.prev.Load(); old != nil; old = old.prev.Load() {
		n++
	}
	if n > 0 {
		v.prev.Store(nil)
	}
	return n
}

// postingIndex maps a key to the bucket of rows that ever held it. An
// entry carries no visibility: it is added when a row takes a key (insert,
// or an update that changes the key's encoding) and never ended, pruned or
// removed, because rows are never deleted and a row changes a given key at
// most a few times. Readers collect a bucket's ids as candidates and decide
// with the row's own version chain plus a re-check of the predicate
// (gather), so a stale entry — the row has since moved to another key — and
// an early one — the row took the key after the reader's epoch — both
// filter themselves out.
//
// One plain map serves both sides. The writer (already serialized by the
// partition's writeMu) reads it without taking mu — it is the only
// goroutine that ever mutates the map, so its own lookups cannot race —
// which lets the hot insert path run a plain map[string] access with a
// []byte key, a lookup the compiler performs without materialising the
// string. Readers take mu.RLock for the map access only; the writer takes
// mu.Lock just for the one rare map mutation (first sighting of a key), so
// readers never wait on a write in progress — only on a single map write.
// Bucket contents are lock-free for readers.
type postingIndex struct {
	mu sync.RWMutex
	m  map[string]*postingBucket
	// mi replaces m for indexes over exactly one Int column (most of the
	// archive's hot secondary indexes — wf_id, job_id, job_instance_id):
	// buckets are keyed by the column value directly, so the insert path
	// skips the composite-key encode, hashes an int64 instead of a byte
	// string, and never materialises a key string for the map — at a
	// million rows those per-new-key allocations and string rehashes are
	// a measurable slice of load time. nilb is the bucket for rows whose
	// indexed column is NULL (the "\x00nil" key of the string form).
	// Locking is identical to m: the writer reads unlocked, map/nilb
	// mutations and reader lookups synchronise on mu.
	mi   map[int64]*postingBucket
	nilb *postingBucket
}

// postingBucket is every row that ever held one key: an atomic
// singly-linked list of row ids, newest-posted first. A row that left the
// key and came back appears twice; readers sort and compact.
type postingBucket struct {
	head atomic.Pointer[postingNode]
}

// postingNode is one index entry. Both fields are written before the
// bucket's head store publishes the node and never change afterwards.
type postingNode struct {
	id   int64
	next *postingNode
}

// post records that row id holds b's key. It never looks at what the bucket
// already holds, so posting into a bucket of ten thousand ids costs what
// posting into an empty one does. Writer-only.
func (t *table) post(b *postingBucket, id int64) {
	if len(t.nodeSlab) == 0 {
		t.nodeSlab = make([]postingNode, slabSize)
	}
	n := &t.nodeSlab[0]
	t.nodeSlab = t.nodeSlab[1:]
	n.id = id
	n.next = b.head.Load()
	b.head.Store(n)
}

// postKey posts row id under key, whose bucket the caller already resolved
// (nil when the key is unseen). When the key exists — the common case for
// secondary indexes — nothing allocates beyond an amortised share of a node
// slab; a never-seen key costs the one interned string (the map insert must
// materialise it) plus a share of a bucket slab. Writer-only.
func (t *table) postKey(ix *postingIndex, key []byte, b *postingBucket, id int64) {
	if b == nil {
		b = t.newBucket()
		ix.mu.Lock()
		ix.m[string(key)] = b
		ix.mu.Unlock()
	}
	t.post(b, id)
}

// bucketInt returns a specialized single-Int index's bucket for value v, or
// its NULL bucket. The writer calls it unlocked, as it reads ix.m; readers
// hold mu.RLock.
func (ix *postingIndex) bucketInt(v int64, isNil bool) *postingBucket {
	if isNil {
		return ix.nilb
	}
	return ix.mi[v]
}

// postInt is postKey for a specialized single-Int index: no key encode.
func (t *table) postInt(ix *postingIndex, v int64, isNil bool, id int64) {
	b := ix.bucketInt(v, isNil)
	if b == nil {
		b = t.newBucket()
		ix.mu.Lock()
		if isNil {
			ix.nilb = b
		} else {
			ix.mi[v] = b
		}
		ix.mu.Unlock()
	}
	t.post(b, id)
}

// newBucket returns a slab-allocated, empty postingBucket.
func (t *table) newBucket() *postingBucket {
	if len(t.bucketSlab) == 0 {
		t.bucketSlab = make([]postingBucket, slabSize)
	}
	b := &t.bucketSlab[0]
	t.bucketSlab = t.bucketSlab[1:]
	return b
}

// candidates returns the ids of every row that ever held the key conds
// spell (one condition per indexed column, in index order), ascending by
// primary key and without repeats, so indexed Selects are deterministic.
// The caller resolves each id at its epoch and re-checks the predicate;
// nothing here knows about visibility. Reader-safe.
func (ix *postingIndex) candidates(conds []slotCond) []int64 {
	var b *postingBucket
	if ix.mi != nil {
		ix.mu.RLock()
		b = ix.bucketInt(int64(conds[0].word), conds[0].null)
		ix.mu.RUnlock()
	} else {
		var key, val []byte
		for i := range conds {
			key, val = appendKeyPart(key, val, conds[i].col.typ, conds[i].null, conds[i].word, conds[i].str)
		}
		ix.mu.RLock()
		b = ix.m[string(key)]
		ix.mu.RUnlock()
	}
	if b == nil {
		return nil
	}
	var ids []int64
	for n := b.head.Load(); n != nil; n = n.next {
		ids = append(ids, n.id)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// noteID raises the shared id allocator to at least id; replay and
// checkpoint load call it so post-recovery inserts continue above every
// recovered primary key. Single-threaded (recovery) only.
func (t *table) noteID(id int64) {
	if id > t.alloc.Load() {
		t.alloc.Store(id)
	}
}

func newTable(lay *Layout, alloc *atomic.Int64) *table {
	t := &table{
		schema:   lay.schema,
		lay:      lay,
		alloc:    alloc,
		ukeys:    make([][]byte, len(lay.unique)),
		ubuckets: make([]*postingBucket, len(lay.unique)),
	}
	for range lay.unique {
		t.uniques = append(t.uniques, &postingIndex{m: map[string]*postingBucket{}})
	}
	for _, cols := range lay.indexes {
		ix := &postingIndex{m: map[string]*postingBucket{}}
		if len(cols) == 1 && cols[0].typ == Int {
			ix.mi = map[int64]*postingBucket{}
		}
		t.indexes = append(t.indexes, ix)
	}
	return t
}

// putRow installs a brand-new row (id already assigned) as a fresh chain
// beginning at epoch e and indexes it. Writer-only. The caller maintains
// t.live, bumping it only after the epoch publishes.
func (t *table) putRow(row *Row, e uint64) {
	t.putRowKeys(row, e, t.buildUniqueKeys(row, nil))
}

// putRowKeys is putRow with the row's unique keys already built (the
// insert path computes them once and shares them between the unique check
// and indexing).
func (t *table) putRowKeys(row *Row, e uint64, ukeys [][]byte) {
	row.begin = e
	t.rows.slot(row.id).head.Store(row)
	t.postUniqueKeys(ukeys, row.id)
	for i, cols := range t.lay.indexes {
		t.postIndex(t.indexes[i], row, cols)
	}
}

// supersede replaces the live version old of chain c with row at epoch e;
// ukeys is buildUniqueKeys(row, old). Readers pinned below e keep seeing
// old; readers at e and later see row. The row is posted under a key only
// when the update moved one of that key's columns: the common archive
// updates (exitcode, durations) leave every indexed column untouched, and
// comparing slots is far cheaper than posting again. The entry under the
// old key stays — readers pinned below e still find the row through it,
// later ones drop it on the re-check — and the new key's bucket is not
// probed for an entry the row may have left there earlier (w → v → w): a
// repeat is the reader's to compact.
func (t *table) supersede(c *rowChain, old, row *Row, e uint64, ukeys [][]byte) {
	t.postUniqueKeys(ukeys, row.id)
	for i, cols := range t.lay.indexes {
		if !sameSlots(old, row, cols) {
			t.postIndex(t.indexes[i], row, cols)
		}
	}
	row.begin = e
	row.prev.Store(old)
	old.end.Store(e)
	c.head.Store(row)
}

// postUniqueKeys posts row id under every key buildUniqueKeys built, in the
// bucket it resolved.
func (t *table) postUniqueKeys(ukeys [][]byte, id int64) {
	for i, key := range ukeys {
		if len(key) > 0 {
			t.postKey(t.uniques[i], key, t.ubuckets[i], id)
		}
	}
}

// postIndex posts row under its key in the secondary index ix over cols.
func (t *table) postIndex(ix *postingIndex, row *Row, cols []Col) {
	if ix.mi != nil {
		v, isNil := row.intAt(cols[0])
		t.postInt(ix, v, isNil, row.id)
		return
	}
	t.keyBuf = t.keyInto(t.keyBuf[:0], row, cols)
	t.postKey(ix, t.keyBuf, ix.m[string(t.keyBuf)], row.id)
}

// appendKeyPart appends one column value to a composite key as
// <length>:<value>, val being scratch for the value's text. The length
// prefix keeps ("a","bc") distinct from ("ab","c"). Keys live in memory
// only; what matters is that a stored row (keyInto) and a probe
// (postingIndex.candidates) spell equal values alike.
func appendKeyPart(key, val []byte, t ColType, null bool, word uint64, str string) (k, v []byte) {
	val = val[:0]
	switch {
	case null:
		val = append(val, "\x00nil"...)
	case t == Str:
		val = append(val, str...)
	case t == Float:
		val = strconv.AppendFloat(val, math.Float64frombits(word), 'g', -1, 64)
	default: // Int, Bool and Time words
		val = strconv.AppendInt(val, int64(word), 10)
	}
	key = strconv.AppendInt(key, int64(len(val)), 10)
	key = append(key, ':')
	return append(key, val...), val
}

// keyInto builds the composite key for cols of row into dst and returns
// it. Writer-only (it shares t.valBuf).
func (t *table) keyInto(dst []byte, row *Row, cols []Col) []byte {
	for _, c := range cols {
		null, word, str := row.slotAt(c)
		dst, t.valBuf = appendKeyPart(dst, t.valBuf, c.typ, null, word, str)
	}
	return dst
}

// buildUniqueKeys fills t.ukeys with row's unique-constraint keys and
// returns it; the slice and its buffers are scratch, valid until the
// next build. Each key's bucket is resolved into t.ubuckets as a side
// effect, so the unique check and the posting insert that follow pay for
// one map lookup per constraint between them. For an update, old is the
// version row replaces, and a constraint whose columns the update left
// alone gets an empty key: there is nothing to check or post for it.
// Writer-only.
func (t *table) buildUniqueKeys(row, old *Row) [][]byte {
	for i, cols := range t.lay.unique {
		t.ukeys[i], t.ubuckets[i] = t.ukeys[i][:0], nil
		if old == nil || !sameSlots(old, row, cols) {
			t.ukeys[i] = t.keyInto(t.ukeys[i], row, cols)
			t.ubuckets[i] = t.uniques[i].m[string(t.ukeys[i])]
		}
	}
	return t.ukeys
}

// checkUnique verifies row's unique constraints against the writer's view,
// probing the buckets buildUniqueKeys resolved for it (exclude is row's own
// id, for updates). A key collides when some row ever posted under it,
// other than exclude, holds it now: the bucket only nominates, the
// candidate's live version decides — so a row renamed away from a key frees
// it, and a rename back collides with whoever took it meanwhile. A
// never-seen key (every non-duplicate insert) has no bucket and costs
// nothing.
func (t *table) checkUnique(row *Row, exclude int64) error {
	for i, b := range t.ubuckets {
		if b == nil {
			continue
		}
		for n := b.head.Load(); n != nil; n = n.next {
			if n.id == exclude {
				continue
			}
			if live := t.liveRow(n.id); live != nil && sameSlots(live, row, t.lay.unique[i]) {
				return &UniqueError{Table: t.schema.Name, Columns: t.schema.Unique[i], ExistingID: n.id}
			}
		}
	}
	return nil
}

// indexCovering returns the secondary index, or failing that the unique
// constraint's index, declared over exactly the columns of conds (order
// sensitive), or nil.
func (t *table) indexCovering(conds []slotCond) *postingIndex {
	covers := func(cols []Col) bool {
		if len(cols) != len(conds) {
			return false
		}
		for i, c := range cols {
			if c != conds[i].col {
				return false
			}
		}
		return true
	}
	for i, cols := range t.lay.indexes {
		if covers(cols) {
			return t.indexes[i]
		}
	}
	for i, cols := range t.lay.unique {
		if covers(cols) {
			return t.uniques[i]
		}
	}
	return nil
}

// UniqueError reports a unique-constraint violation. The loader relies on
// it to implement idempotent replay (duplicate static events on workflow
// restart are skipped, not fatal).
type UniqueError struct {
	Table      string
	Columns    []string
	ExistingID int64
}

func (e *UniqueError) Error() string {
	return fmt.Sprintf("relstore: unique constraint on %s(%s) violated (existing row %d)",
		e.Table, strings.Join(e.Columns, ","), e.ExistingID)
}
