package relstore

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// table holds one TableSchema's rows as multi-version chains plus posting
// lists for unique constraints and secondary indexes. Visibility is a
// property of rows only: a row's version chain decides what a reader at an
// epoch sees, and an index entry is a hint — "row id held this key at some
// epoch" — that is only ever added and that every reader re-checks against
// the row (see postingIndex). All mutation is serialized by the partition's
// writer mutex; readers never lock. Every structure a reader can reach is
// either immutable after publication or published through an atomic
// pointer/uint store, so readers race-freely observe a consistent prefix of
// history at their pinned epoch.
type table struct {
	schema  *TableSchema
	colType map[string]ColType
	rows    rowMap // id -> *rowChain, see rowmap.go
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
	keyBuf2  []byte
	valBuf   []byte
	ukeys    [][]byte
	ubuckets []*postingBucket // buckets for ukeys, resolved by buildUniqueKeys

	// Version-chain and posting nodes are slab-allocated in writer-owned
	// chunks: the loader inserts millions of rows whose chains live forever,
	// so paying one allocation per slabSize nodes instead of one per node is
	// pure win. Tradeoff: the GC can only reclaim a whole slab, so a chunk in
	// which even one node is live pins its siblings (and, for rowVersion,
	// their Row references). Insert-heavy archive tables keep nearly every
	// node live anyway; workloads that churn rows should size GC
	// expectations accordingly.
	verSlab    []rowVersion
	chainSlab  []rowChain
	nodeSlab   []postingNode
	bucketSlab []postingBucket
}

// slabSize is the node-slab chunk length (see the slab fields above).
const slabSize = 256

func (t *table) newVersion(row Row, begin uint64) *rowVersion {
	if len(t.verSlab) == 0 {
		t.verSlab = make([]rowVersion, slabSize)
	}
	v := &t.verSlab[0]
	t.verSlab = t.verSlab[1:]
	v.row = row
	v.begin = begin
	return v
}

func (t *table) newChain() *rowChain {
	if len(t.chainSlab) == 0 {
		t.chainSlab = make([]rowChain, slabSize)
	}
	c := &t.chainSlab[0]
	t.chainSlab = t.chainSlab[1:]
	return c
}

// rowChain is the per-row version list, newest version first.
type rowChain struct {
	head atomic.Pointer[rowVersion]
}

// rowVersion is one immutable version of a row. A version is visible to a
// reader at epoch e when begin <= e and (end == 0 or end > e). row and
// begin are written before the version is published via an atomic head
// store and never change afterwards; end is set once, when a newer version
// supersedes the row. prev is atomic so version
// GC can truncate the tail while readers walk the chain.
type rowVersion struct {
	row   Row
	begin uint64
	end   atomic.Uint64 // 0 = still current
	prev  atomic.Pointer[rowVersion]
}

// visibleAt returns the version of this chain visible at epoch e, or nil.
// The chain is ordered newest first, so the first version with begin <= e
// decides: either it is visible at e or the row does not exist at e (any
// older version ended no later than this one began).
func (c *rowChain) visibleAt(e uint64) *rowVersion {
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
func (c *rowChain) liveVersion() *rowVersion {
	if v := c.head.Load(); v != nil && v.end.Load() == 0 {
		return v
	}
	return nil
}

// liveRow returns the newest version of row id — the writer's view, which
// the unique check and foreign-key probes decide on — or nil when the table
// holds no such row. Lock-free, so a writer may probe another partition.
func (t *table) liveRow(id int64) Row {
	if c, ok := t.rows.Load(id); ok {
		if v := c.liveVersion(); v != nil {
			return v.row
		}
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
	mi     map[int64]*postingBucket
	nilb   *postingBucket
	intCol string // the indexed column when mi is non-nil
}

// intKeyOf extracts row's value for a specialized index column. normalize
// guarantees an Int column holds int64 or nil, so anything else is nil.
func intKeyOf(row Row, col string) (v int64, isNil bool) {
	if x, ok := row[col].(int64); ok {
		return x, false
	}
	return 0, true
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

// candidates returns the ids of every row that ever held probe's key over
// cols, ascending by primary key and without repeats, so indexed Selects
// are deterministic. The caller resolves each id at its epoch and re-checks
// the predicate; nothing here knows about visibility. Reader-safe.
func (ix *postingIndex) candidates(probe Row, cols []string) []int64 {
	var b *postingBucket
	if ix.mi != nil {
		v, isNil := intKeyOf(probe, ix.intCol)
		ix.mu.RLock()
		b = ix.bucketInt(v, isNil)
		ix.mu.RUnlock()
	} else {
		key := compositeKey(probe, cols)
		ix.mu.RLock()
		b = ix.m[key]
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

func newTable(s *TableSchema, alloc *atomic.Int64) *table {
	t := &table{
		schema:   s,
		colType:  make(map[string]ColType, len(s.Columns)+1),
		alloc:    alloc,
		ukeys:    make([][]byte, len(s.Unique)),
		ubuckets: make([]*postingBucket, len(s.Unique)),
	}
	t.colType["id"] = Int
	for _, c := range s.Columns {
		t.colType[c.Name] = c.Type
	}
	for range s.Unique {
		t.uniques = append(t.uniques, &postingIndex{m: map[string]*postingBucket{}})
	}
	for _, cols := range s.Indexes {
		ix := &postingIndex{m: map[string]*postingBucket{}}
		if len(cols) == 1 && t.colType[cols[0]] == Int {
			ix.mi = map[int64]*postingBucket{}
			ix.intCol = cols[0]
		}
		t.indexes = append(t.indexes, ix)
	}
	return t
}

// putRow installs a brand-new row (id already assigned) as a fresh chain
// beginning at epoch e and indexes it. Writer-only. The caller maintains
// t.live, bumping it only after the epoch publishes.
func (t *table) putRow(row Row, e uint64) {
	t.putRowKeys(row, e, t.buildUniqueKeys(row))
}

// putRowKeys is putRow with the row's unique keys already built (the
// insert path computes them once and shares them between the unique check
// and indexing).
func (t *table) putRowKeys(row Row, e uint64, ukeys [][]byte) {
	c := t.newChain()
	c.head.Store(t.newVersion(row, e))
	id := row.ID()
	t.rows.Store(id, c)
	for i := range ukeys {
		t.postKey(t.uniques[i], ukeys[i], t.ubuckets[i], id)
	}
	for i, cols := range t.schema.Indexes {
		ix := t.indexes[i]
		if ix.mi != nil {
			v, isNil := intKeyOf(row, ix.intCol)
			t.postInt(ix, v, isNil, id)
			continue
		}
		t.keyBuf = t.keyInto(t.keyBuf[:0], row, cols)
		t.postKey(ix, t.keyBuf, ix.m[string(t.keyBuf)], id)
	}
}

// supersede replaces the live version old of chain c with row at epoch e.
// Readers pinned below e keep seeing old; readers at e and later see row.
// The row is posted under a key only when the update changed that key's
// encoding: the common archive updates (exitcode, durations) leave every
// indexed column untouched, and comparing the keys is far cheaper than
// posting again. The entry under the old key stays — readers pinned below e
// still find the row through it, later ones drop it on the re-check — and
// the new key's bucket is not probed for an entry the row may have left
// there earlier (w → v → w): a repeat is the reader's to compact.
func (t *table) supersede(c *rowChain, old *rowVersion, row Row, e uint64) {
	id := row.ID()
	for i, cols := range t.schema.Unique {
		t.postIfMoved(t.uniques[i], old.row, row, cols, id)
	}
	for i, cols := range t.schema.Indexes {
		ix := t.indexes[i]
		if ix.mi == nil {
			t.postIfMoved(ix, old.row, row, cols, id)
			continue
		}
		ov, onil := intKeyOf(old.row, ix.intCol)
		if nv, nnil := intKeyOf(row, ix.intCol); nv != ov || nnil != onil {
			t.postInt(ix, nv, nnil, id)
		}
	}
	v := t.newVersion(row, e)
	v.prev.Store(old)
	old.end.Store(e)
	c.head.Store(v)
}

// postIfMoved posts row id under newRow's key over cols when its encoding
// differs from oldRow's, and does nothing when they are equal.
func (t *table) postIfMoved(ix *postingIndex, oldRow, newRow Row, cols []string, id int64) {
	t.keyBuf = t.keyInto(t.keyBuf[:0], oldRow, cols)
	t.keyBuf2 = t.keyInto(t.keyBuf2[:0], newRow, cols)
	if !bytes.Equal(t.keyBuf, t.keyBuf2) {
		t.postKey(ix, t.keyBuf2, ix.m[string(t.keyBuf2)], id)
	}
}

// appendKeyValue appends the canonical key encoding of one column value.
func appendKeyValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, "\x00nil"...)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case string:
		return append(b, x...)
	case bool:
		return strconv.AppendBool(b, x)
	case time.Time:
		return x.UTC().AppendFormat(b, time.RFC3339Nano)
	default:
		return fmt.Append(b, x)
	}
}

// keyInto builds the composite key for cols of row into dst and returns
// it. Writer-only (it shares t.valBuf); reader paths use compositeKey.
func (t *table) keyInto(dst []byte, row Row, cols []string) []byte {
	for _, c := range cols {
		t.valBuf = appendKeyValue(t.valBuf[:0], row[c])
		dst = strconv.AppendInt(dst, int64(len(t.valBuf)), 10)
		dst = append(dst, ':')
		dst = append(dst, t.valBuf...)
	}
	return dst
}

// buildUniqueKeys fills t.ukeys with row's unique-constraint keys and
// returns it; the slice and its buffers are scratch, valid until the
// next build. Each key's bucket is resolved into t.ubuckets as a side
// effect, so the unique check and the posting insert that follow pay for
// one map lookup per constraint between them. Writer-only.
func (t *table) buildUniqueKeys(row Row) [][]byte {
	for i, cols := range t.schema.Unique {
		t.ukeys[i] = t.keyInto(t.ukeys[i][:0], row, cols)
		t.ubuckets[i] = t.uniques[i].m[string(t.ukeys[i])]
	}
	return t.ukeys
}

// compositeKey encodes the values of cols from row into one string key.
// A length-prefixed encoding keeps ("a","bc") distinct from ("ab","c").
// It must encode identically to keyInto; both delegate to appendKeyValue.
func compositeKey(row Row, cols []string) string {
	var b, val []byte
	for _, c := range cols {
		val = appendKeyValue(val[:0], row[c])
		b = strconv.AppendInt(b, int64(len(val)), 10)
		b = append(b, ':')
		b = append(b, val...)
	}
	return string(b)
}

// normalize coerces every value in r to canonical types, checks that all
// columns exist, and fills absent nullable columns with nil. The returned
// row is a fresh map owned by the table; its coerced values may alias r's.
//
// The walk is driven from the schema's column list rather than ranging
// over r: the column's type is in hand (no colType
// lookup per key) and presence costs one probe of the small row map, about
// half the map traffic of the key-driven shape. Keys of r that are not
// columns surface as a count mismatch, diagnosed after the walk.
func (t *table) normalize(r Row) (Row, error) {
	out := make(Row, len(t.schema.Columns)+1)
	n := len(r)
	if _, ok := r["id"]; ok {
		n-- // assigned by the table
	}
	found := 0
	for _, c := range t.schema.Columns {
		v, present := r[c.Name]
		if present {
			found++
		}
		if !present {
			if !c.Nullable {
				return nil, fmt.Errorf("relstore: table %s: column %s is required", t.schema.Name, c.Name)
			}
			out[c.Name] = nil
			continue
		}
		if v == nil {
			if !c.Nullable {
				return nil, fmt.Errorf("relstore: table %s: column %s may not be null", t.schema.Name, c.Name)
			}
			out[c.Name] = nil
			continue
		}
		cv, err := coerce(t.schema.Name, c.Name, c.Type, v)
		if err != nil {
			return nil, err
		}
		out[c.Name] = cv
	}
	if found != n {
		return nil, t.unknownColumn(r)
	}
	return out, nil
}

// unknownColumn names a key of r that is not a column of t. Called only
// when normalize's presence count proved such a key exists.
func (t *table) unknownColumn(r Row) error {
	for k := range r {
		if _, ok := t.colType[k]; !ok {
			return fmt.Errorf("relstore: table %s has no column %s", t.schema.Name, k)
		}
	}
	return fmt.Errorf("relstore: table %s: row has an unknown column", t.schema.Name)
}

// checkUnique verifies unique constraints for row (excluding the row with
// id exclude, for updates) against the writer's view.
func (t *table) checkUnique(row Row, exclude int64) error {
	return t.checkUniqueKeys(t.buildUniqueKeys(row), exclude)
}

// checkUniqueKeys is checkUnique over keys pre-built by buildUniqueKeys,
// probing the buckets that build already resolved. A key collides when some
// row ever posted under it, other than exclude, holds it now: the bucket
// only nominates, the candidate's live version decides — so a row renamed
// away from a key frees it, and a rename back collides with whoever took it
// meanwhile. A never-seen key (every non-duplicate insert) has no bucket and
// costs nothing. keys[i] lives in t.ukeys[i], so encoding a candidate into
// t.keyBuf2 does not alias the probe.
func (t *table) checkUniqueKeys(keys [][]byte, exclude int64) error {
	for i, key := range keys {
		b := t.ubuckets[i]
		if b == nil {
			continue
		}
		for n := b.head.Load(); n != nil; n = n.next {
			if n.id == exclude {
				continue
			}
			if live := t.liveRow(n.id); live != nil {
				t.keyBuf2 = t.keyInto(t.keyBuf2[:0], live, t.schema.Unique[i])
				if bytes.Equal(t.keyBuf2, key) {
					return &UniqueError{Table: t.schema.Name, Columns: t.schema.Unique[i], ExistingID: n.id}
				}
			}
		}
	}
	return nil
}

// indexCovering returns the secondary index, or failing that the unique
// constraint's index, declared over exactly cols (order sensitive), or nil.
func (t *table) indexCovering(cols []string) *postingIndex {
	for i, ix := range t.schema.Indexes {
		if slices.Equal(ix, cols) {
			return t.indexes[i]
		}
	}
	for i, u := range t.schema.Unique {
		if slices.Equal(u, cols) {
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
