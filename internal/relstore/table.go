package relstore

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// table holds one TableSchema's rows as multi-version chains plus posting
// lists for unique constraints and secondary indexes. All mutation is
// serialized by the store-wide writer mutex; readers never lock. Every
// structure a reader can reach is either immutable after publication or
// published through an atomic pointer/uint store, so readers race-freely
// observe a consistent prefix of history at their pinned epoch.
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

	// Version-chain nodes are slab-allocated in writer-owned chunks: the
	// loader inserts millions of rows whose chains live forever, so paying
	// one allocation per slabSize nodes instead of three per row is pure
	// win. Tradeoff: the GC can only reclaim a whole slab, so a chunk in
	// which even one node is live pins its siblings (and, for rowVersion,
	// their Row references). Insert-heavy archive tables keep nearly every
	// node live anyway; workloads that churn rows should size GC
	// expectations accordingly.
	verSlab    []rowVersion
	chainSlab  []rowChain
	pchainSlab []postingChain
	postSlab   []posting
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

func (t *table) newPosting(begin uint64) *posting {
	if len(t.postSlab) == 0 {
		t.postSlab = make([]posting, slabSize)
	}
	p := &t.postSlab[0]
	t.postSlab = t.postSlab[1:]
	p.begin = begin
	return p
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

// postingIndex maps a composite key to a bucket of per-row interval
// chains. Keeping one chain per (key, id) pair — rather than one list per
// key — makes every writer-side operation (close an interval, prune) O(1) in the
// number of rows sharing the key, which is what keeps hot keys (all jobs
// of one workflow, say) from turning every update into a full-key walk.
//
// One plain map serves both sides. The writer (already serialized by
// Store.writeMu) reads it without taking mu — it is the only goroutine
// that ever mutates the map, so its own lookups cannot race — which lets
// the hot insert path run a plain map[string] access with a []byte key,
// a lookup the compiler performs without materialising the string.
// Readers take mu.RLock for the map access only; the writer takes
// mu.Lock just for the two rare map mutations (first sighting of a key,
// dropping an emptied key), so readers never wait on a write in
// progress — only on a single map write. Bucket contents stay lock-free
// for readers as before.
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

// bucketInt returns the bucket for value v (or the NULL bucket).
// Writer-only: the unlocked map read mirrors addPosting's ix.m access.
func (ix *postingIndex) bucketInt(v int64, isNil bool) *postingBucket {
	if isNil {
		return ix.nilb
	}
	return ix.mi[v]
}

// bucketIntLocked is bucketInt for goroutines not holding the partition's
// writer mutex.
func (ix *postingIndex) bucketIntLocked(v int64, isNil bool) *postingBucket {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if isNil {
		return ix.nilb
	}
	return ix.mi[v]
}

// postingBucket is every row that ever matched one key. Readers walk
// chains, an atomic singly-linked list of the rows' interval chains
// (newest-joined first). The remaining fields are writer-owned: ids
// counts entries so an emptied bucket can drop its key without a walk,
// and wByID accelerates one row's chain lookup — it stays nil while the
// bucket is small (unique keys hold one row; most index keys a handful)
// and is built only once the chain walk would get long.
type postingBucket struct {
	chains atomic.Pointer[postingChain]
	wByID  map[int64]*postingChain
	ids    int64
}

// bucketMapThreshold is the bucket size at which wByID is materialised.
const bucketMapThreshold = 16

// chainOf returns the bucket's chain for row id, or nil. Writer-only.
func (b *postingBucket) chainOf(id int64) *postingChain {
	if b.wByID != nil {
		return b.wByID[id]
	}
	for c := b.chains.Load(); c != nil; c = c.next.Load() {
		if c.id == id {
			return c
		}
	}
	return nil
}

// liveID returns a row currently holding the bucket's key, if any — the
// writer's view, used for unique checks and FK probes. Dead chains are
// pruned on write, so a unique key's bucket stays near one entry.
func (b *postingBucket) liveID() (int64, bool) {
	for c := b.chains.Load(); c != nil; c = c.next.Load() {
		if c.liveIn() {
			return c.id, true
		}
	}
	return 0, false
}

// postingChain is one row's validity intervals for one key, newest first.
// next links the chains of all rows in the same bucket.
type postingChain struct {
	id   int64
	head atomic.Pointer[posting]
	next atomic.Pointer[postingChain]
}

// posting records that the row matched the key during the epoch range
// [begin, end). Like rowVersion, begin is immutable after the atomic head
// publish and end is set once.
type posting struct {
	begin uint64
	end   atomic.Uint64 // 0 = still current
	next  atomic.Pointer[posting]
}

func postingVisible(p *posting, e uint64) bool {
	if p.begin > e {
		return false
	}
	end := p.end.Load()
	return end == 0 || end > e
}

// visibleIn reports whether some interval of chain c covers epoch e. The
// chain is newest first and intervals are disjoint, so the first interval
// with begin <= e decides.
func (c *postingChain) visibleIn(e uint64) bool {
	for p := c.head.Load(); p != nil; p = p.next.Load() {
		if p.begin > e {
			continue
		}
		return postingVisible(p, e)
	}
	return false
}

// liveIn reports whether the chain's newest interval is still open.
func (c *postingChain) liveIn() bool {
	p := c.head.Load()
	return p != nil && p.end.Load() == 0
}

// addPosting opens a live interval for (key, id) at epoch e, drawing the
// bucket, chain and posting nodes from t's slabs. Writer-only. When both
// the key and the (key, id) chain already exist — the common case for
// secondary indexes — nothing allocates; a never-seen key costs the one
// interned string (the map insert must materialise it) plus an amortised
// share of a bucket slab.
func (t *table) addPosting(ix *postingIndex, key []byte, id int64, e uint64) {
	t.addPostingIn(ix, key, ix.m[string(key)], id, e)
}

// addPostingIn is addPosting with the key's bucket already resolved (nil
// when the key is unseen) — the insert path reuses the lookup the unique
// check already did. Writer-only.
func (t *table) addPostingIn(ix *postingIndex, key []byte, b *postingBucket, id int64, e uint64) {
	if b == nil {
		b = t.newBucket()
		ix.mu.Lock()
		ix.m[string(key)] = b
		ix.mu.Unlock()
	}
	c := b.chainOf(id)
	if c == nil {
		c = t.attachChain(b, id)
	}
	t.pushPosting(c, e)
}

// addFreshPosting is addPostingIn for a row id the index has never seen —
// every brand-new insert, since primary keys are never reused. The
// bucket's chainOf probe is skipped: in a hot many-row bucket (all jobs
// of one workflow under the wf_id index, say) that probe is a lookup in
// a wByID map the size of the table, paid per insert for a chain that
// cannot exist.
func (t *table) addFreshPosting(ix *postingIndex, key []byte, b *postingBucket, id int64, e uint64) {
	if b == nil {
		b = t.newBucket()
		ix.mu.Lock()
		ix.m[string(key)] = b
		ix.mu.Unlock()
	}
	t.pushPosting(t.attachChain(b, id), e)
}

// addPostingInt is addPostingIn for a specialized single-Int index.
func (t *table) addPostingInt(ix *postingIndex, v int64, isNil bool, id int64, e uint64) {
	b := ix.bucketInt(v, isNil)
	if b == nil {
		b = t.newIntBucket(ix, v, isNil)
	}
	c := b.chainOf(id)
	if c == nil {
		c = t.attachChain(b, id)
	}
	t.pushPosting(c, e)
}

// addFreshPostingInt is addFreshPosting for a specialized single-Int
// index: no key encode, no chainOf probe.
func (t *table) addFreshPostingInt(ix *postingIndex, v int64, isNil bool, id int64, e uint64) {
	b := ix.bucketInt(v, isNil)
	if b == nil {
		b = t.newIntBucket(ix, v, isNil)
	}
	t.pushPosting(t.attachChain(b, id), e)
}

// newIntBucket installs an empty bucket under value v (or NULL) of a
// specialized index.
func (t *table) newIntBucket(ix *postingIndex, v int64, isNil bool) *postingBucket {
	b := t.newBucket()
	ix.mu.Lock()
	if isNil {
		ix.nilb = b
	} else {
		ix.mi[v] = b
	}
	ix.mu.Unlock()
	return b
}

// attachChain creates and links a new chain for row id into bucket b,
// maintaining the wByID acceleration map. Writer-only.
func (t *table) attachChain(b *postingBucket, id int64) *postingChain {
	c := t.newPChain(id)
	c.next.Store(b.chains.Load())
	b.chains.Store(c)
	if b.wByID != nil {
		b.wByID[id] = c
	} else if b.ids >= bucketMapThreshold {
		m := make(map[int64]*postingChain, 2*bucketMapThreshold)
		for x := b.chains.Load(); x != nil; x = x.next.Load() {
			m[x.id] = x
		}
		b.wByID = m
	}
	b.ids++
	return c
}

// pushPosting opens a live interval at epoch e on chain c. Writer-only.
func (t *table) pushPosting(c *postingChain, e uint64) {
	p := t.newPosting(e)
	p.next.Store(c.head.Load())
	c.head.Store(p)
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

// newPChain returns a slab-allocated postingChain for row id.
func (t *table) newPChain(id int64) *postingChain {
	if len(t.pchainSlab) == 0 {
		t.pchainSlab = make([]postingChain, slabSize)
	}
	c := &t.pchainSlab[0]
	t.pchainSlab = t.pchainSlab[1:]
	c.id = id
	return c
}

// endPosting closes the live interval for (key, id) at epoch e.
// Writer-only (its map read is unlocked).
func (ix *postingIndex) endPosting(key []byte, id int64, e uint64) {
	b, ok := ix.m[string(key)]
	if !ok {
		return
	}
	endChainPosting(b, id, e)
}

// endPostingInt is endPosting for a specialized single-Int index.
func (ix *postingIndex) endPostingInt(v int64, isNil bool, id int64, e uint64) {
	b := ix.bucketInt(v, isNil)
	if b == nil {
		return
	}
	endChainPosting(b, id, e)
}

func endChainPosting(b *postingBucket, id int64, e uint64) {
	if c := b.chainOf(id); c != nil {
		if p := c.head.Load(); p != nil && p.end.Load() == 0 {
			p.end.Store(e)
		}
	}
}

// liveID returns the id of a row currently holding key — the writer's
// view, used for unique checks and FK probes. Writer-only.
func (ix *postingIndex) liveID(key string) (int64, bool) {
	b, ok := ix.m[key]
	if !ok {
		return 0, false
	}
	return b.liveID()
}

// liveIDLocked is liveID for goroutines that do not hold this partition's
// writer mutex (cross-partition FK probes): the map access takes the read
// lock; the bucket walk is the same lock-free atomic traversal readers use.
func (ix *postingIndex) liveIDLocked(key string) (int64, bool) {
	ix.mu.RLock()
	b, ok := ix.m[key]
	ix.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return b.liveID()
}

// liveIDInt / liveIDIntLocked are the liveID pair for a specialized
// single-Int index.
func (ix *postingIndex) liveIDInt(v int64, isNil bool) (int64, bool) {
	b := ix.bucketInt(v, isNil)
	if b == nil {
		return 0, false
	}
	return b.liveID()
}

func (ix *postingIndex) liveIDIntLocked(v int64, isNil bool) (int64, bool) {
	b := ix.bucketIntLocked(v, isNil)
	if b == nil {
		return 0, false
	}
	return b.liveID()
}

// noteID raises the shared id allocator to at least id; replay and
// checkpoint load call it so post-recovery inserts continue above every
// recovered primary key. Single-threaded (recovery) only.
func (t *table) noteID(id int64) {
	if id > t.alloc.Load() {
		t.alloc.Store(id)
	}
}

// idAt returns the id of the row holding key at epoch e. For unique keys
// at most one row is visible at any epoch. Reader-safe.
func (ix *postingIndex) idAt(key string, e uint64) (int64, bool) {
	ix.mu.RLock()
	b, ok := ix.m[key]
	ix.mu.RUnlock()
	if !ok {
		return 0, false
	}
	for c := b.chains.Load(); c != nil; c = c.next.Load() {
		if c.visibleIn(e) {
			return c.id, true
		}
	}
	return 0, false
}

// idsAt collects the ids of all rows matching key at epoch e, ascending by
// primary key so indexed Selects are deterministic. Reader-safe.
func (ix *postingIndex) idsAt(key string, e uint64) []int64 {
	ix.mu.RLock()
	b, ok := ix.m[key]
	ix.mu.RUnlock()
	if !ok {
		return nil
	}
	var ids []int64
	for c := b.chains.Load(); c != nil; c = c.next.Load() {
		if c.visibleIn(e) {
			ids = append(ids, c.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// idsAtInt is idsAt for a specialized single-Int index.
func (ix *postingIndex) idsAtInt(v int64, isNil bool, e uint64) []int64 {
	b := ix.bucketIntLocked(v, isNil)
	if b == nil {
		return nil
	}
	var ids []int64
	for c := b.chains.Load(); c != nil; c = c.next.Load() {
		if c.visibleIn(e) {
			ids = append(ids, c.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func postingDead(p *posting, minE uint64) bool {
	end := p.end.Load()
	return end != 0 && end <= minE
}

// pruneIntervals drops intervals of c that no reader at epoch >= minE can
// see. Unlinked postings keep their own next pointers, so a paused reader
// finishes its walk. Reports how many were reclaimed and whether the chain
// is now empty. Writer-only.
func pruneIntervals(c *postingChain, minE uint64) (reclaimed int, empty bool) {
	v := c.head.Load()
	for v != nil && v.begin > minE {
		v = v.next.Load()
	}
	if v == nil {
		return 0, c.head.Load() == nil
	}
	n := 0
	for old := v.next.Load(); old != nil; old = old.next.Load() {
		n++
	}
	if n > 0 {
		v.next.Store(nil)
	}
	if postingDead(v, minE) {
		// v itself is invisible to every reader at or above the horizon;
		// unlink it too (it is the tail after the truncation above).
		n++
		if c.head.Load() == v {
			c.head.Store(nil)
		} else {
			for p := c.head.Load(); p != nil; p = p.next.Load() {
				if p.next.Load() == v {
					p.next.Store(nil)
					break
				}
			}
		}
	}
	return n, c.head.Load() == nil
}

// unlink removes chain c from the bucket's reader list. A reader paused
// on c still finishes its walk (c keeps its next pointer); readers that
// start later skip it. The walk is O(bucket), but unlinking only happens
// when a row's last interval for the key dies — an update that changes the
// key, not the insert-heavy steady state. Writer-only.
func (b *postingBucket) unlink(c *postingChain) {
	head := b.chains.Load()
	if head == c {
		b.chains.Store(c.next.Load())
		return
	}
	for p := head; p != nil; p = p.next.Load() {
		if p.next.Load() == c {
			p.next.Store(c.next.Load())
			return
		}
	}
}

// pruneID prunes the single interval chain for (key, id), dropping the id
// entry — and the key's bucket when it empties — once nothing visible
// remains. Writer-only.
func (ix *postingIndex) pruneID(key []byte, id int64, minE uint64) int {
	b, ok := ix.m[string(key)]
	if !ok {
		return 0
	}
	n, emptied := pruneChainIn(b, id, minE)
	if emptied {
		ix.mu.Lock()
		delete(ix.m, string(key))
		ix.mu.Unlock()
	}
	return n
}

// pruneIDInt is pruneID for a specialized single-Int index.
func (ix *postingIndex) pruneIDInt(v int64, isNil bool, id int64, minE uint64) int {
	b := ix.bucketInt(v, isNil)
	if b == nil {
		return 0
	}
	n, emptied := pruneChainIn(b, id, minE)
	if emptied {
		ix.mu.Lock()
		if isNil {
			ix.nilb = nil
		} else {
			delete(ix.mi, v)
		}
		ix.mu.Unlock()
	}
	return n
}

// pruneChainIn prunes bucket b's chain for row id, reporting reclaimed
// postings and whether the bucket emptied (the caller drops its key).
// Writer-only.
func pruneChainIn(b *postingBucket, id int64, minE uint64) (int, bool) {
	c := b.chainOf(id)
	if c == nil {
		return 0, false
	}
	n, empty := pruneIntervals(c, minE)
	if empty {
		b.unlink(c)
		if b.wByID != nil {
			delete(b.wByID, id)
		}
		b.ids--
	}
	return n, b.ids == 0 && empty
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
		t.addFreshPosting(t.uniques[i], ukeys[i], t.ubuckets[i], id, e)
	}
	for i, cols := range t.schema.Indexes {
		if ix := t.indexes[i]; ix.mi != nil {
			v, isNil := intKeyOf(row, ix.intCol)
			t.addFreshPostingInt(ix, v, isNil, id, e)
			continue
		}
		t.keyBuf = t.keyInto(t.keyBuf[:0], row, cols)
		ix := t.indexes[i]
		t.addFreshPosting(ix, t.keyBuf, ix.m[string(t.keyBuf)], id, e)
	}
}

// supersede replaces the live version old of chain c with row at epoch e.
// Readers pinned below e keep seeing old; readers at e and later see row.
// Only keys the update actually changed are re-posted: the common archive
// updates (exitcode, durations, host assignment) leave every indexed
// column untouched, and comparing the encoded keys is far cheaper than
// closing and re-adding identical postings.
func (t *table) supersede(c *rowChain, old *rowVersion, row Row, e uint64) {
	id := row.ID()
	for i, cols := range t.schema.Unique {
		t.reindexChanged(t.uniques[i], old.row, row, cols, id, e)
	}
	for i, cols := range t.schema.Indexes {
		if ix := t.indexes[i]; ix.mi != nil {
			t.reindexChangedInt(ix, old.row, row, id, e)
			continue
		}
		t.reindexChanged(t.indexes[i], old.row, row, cols, id, e)
	}
	v := t.newVersion(row, e)
	v.prev.Store(old)
	old.end.Store(e)
	c.head.Store(v)
}

// reindexChanged moves (oldRow -> newRow)'s posting for one key set when
// the encoded keys differ, and does nothing when they are equal.
func (t *table) reindexChanged(ix *postingIndex, oldRow, newRow Row, cols []string, id int64, e uint64) {
	t.keyBuf = t.keyInto(t.keyBuf[:0], oldRow, cols)
	t.keyBuf2 = t.keyInto(t.keyBuf2[:0], newRow, cols)
	if bytes.Equal(t.keyBuf, t.keyBuf2) {
		return
	}
	ix.endPosting(t.keyBuf, id, e)
	t.addPosting(ix, t.keyBuf2, id, e)
}

// reindexChangedInt is reindexChanged for a specialized single-Int index:
// the old/new values compare directly, with no key encode at all on the
// (dominant) unchanged path. The re-add goes through the chainOf-probing
// addPostingInt — a value can flip back to one the row held before, whose
// chain still exists.
func (t *table) reindexChangedInt(ix *postingIndex, oldRow, newRow Row, id int64, e uint64) {
	ov, onil := intKeyOf(oldRow, ix.intCol)
	nv, nnil := intKeyOf(newRow, ix.intCol)
	if ov == nv && onil == nnil {
		return
	}
	ix.endPostingInt(ov, onil, id, e)
	t.addPostingInt(ix, nv, nnil, id, e)
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
// probing the buckets that build already resolved.
func (t *table) checkUniqueKeys(keys [][]byte, exclude int64) error {
	for i := range keys {
		if b := t.ubuckets[i]; b != nil {
			if id, live := b.liveID(); live && id != exclude {
				return &UniqueError{Table: t.schema.Name, Columns: t.schema.Unique[i], ExistingID: id}
			}
		}
	}
	return nil
}

// pruneRowKeys prunes this row's own interval chains under each of its
// keys; writers call it for the rows they just touched so history never
// accumulates, without ever walking the other rows sharing a key.
func (t *table) pruneRowKeys(row Row, minE uint64) int {
	id := row.ID()
	n := 0
	for i, cols := range t.schema.Unique {
		t.keyBuf = t.keyInto(t.keyBuf[:0], row, cols)
		n += t.uniques[i].pruneID(t.keyBuf, id, minE)
	}
	for i, cols := range t.schema.Indexes {
		if ix := t.indexes[i]; ix.mi != nil {
			v, isNil := intKeyOf(row, ix.intCol)
			n += ix.pruneIDInt(v, isNil, id, minE)
			continue
		}
		t.keyBuf = t.keyInto(t.keyBuf[:0], row, cols)
		n += t.indexes[i].pruneID(t.keyBuf, id, minE)
	}
	return n
}

// findIndex returns the position of an index exactly covering cols (order
// sensitive), or -1.
func (t *table) findIndex(cols []string) int {
	for i, ix := range t.schema.Indexes {
		if len(ix) != len(cols) {
			continue
		}
		match := true
		for j := range ix {
			if ix[j] != cols[j] {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
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
