package relstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// WAL telemetry, shared by every store in the process and labeled by
// partition. Flushes vs fsyncs is the group-commit story in two counters:
// their ratio is how many commit requests each disk sync absorbed — now
// observable per partition, since every partition runs its own independent
// group commit.
var (
	mWALRecords = telemetry.NewCounterVec("stampede_relstore_wal_records_total",
		"Records appended to write-ahead logs, by partition.", "partition")
	mWALFlushes = telemetry.NewCounterVec("stampede_relstore_wal_flushes_total",
		"Commit (Flush) requests; divide by fsyncs for the group-commit coalescing ratio.", "partition")
	mWALFsyncs = telemetry.NewCounterVec("stampede_relstore_wal_fsyncs_total",
		"fsyncs performed on write-ahead logs, by partition.", "partition")
	mWALFsyncSeconds = telemetry.NewHistogramVec("stampede_relstore_wal_fsync_seconds",
		"Latency of one WAL bufio flush + fsync.", telemetry.DurationBuckets, "partition")
)

// Persistence: every mutation appends one record to its partition's
// write-ahead log. OpenDir (and its read-only sibling LoadDir) rebuild the
// store from each partition's newest checkpoint plus its log tail, so a
// database is exactly the history of committed mutations — simple,
// crash-tolerant (a torn final record is detected, and truncated by
// OpenDir), and adequate for the monitoring archive's append-mostly
// workload. Each partition owns a chain of segment files named
// wal-<start>.log, where <start> is the sequence number of the segment's
// first record; checkpoints cut segments at their exact high-water, so
// recovery's skip rule is simply "replay segments whose start exceeds the
// checkpoint seq".
//
// A record is framed the way internal/eventlog frames its own:
//
//	| len u32 | seq u64 | payload | crc32c u32 |
//
// little-endian, the CRC over everything before it, seq the partition's
// record number (so a missing, duplicated or reordered segment fails replay
// instead of folding silently). The payload is canon.go's encoding in its
// compact spelling:
//
//	| op 'c' | table | schema JSON |        create
//	| op 'i' | table | n | row * n |        insert (the writer logs n = 1; the decoder takes any n)
//	| op 'u' | table | row |                update (the full new row)
//
// where a row is the checkpoint image's row: primary key, then every column
// in schema declaration order behind its type tag. Hash, checkpoint and WAL
// therefore share one row codec, and replay needs no type coercion.

const (
	walHeaderSize    = 4 + 8 // len u32, seq u64
	walTrailerSize   = 4     // crc32c
	walFrameOverhead = walHeaderSize + walTrailerSize

	// maxWALRecordBytes bounds one payload. An insert of any n rows is one
	// record, so the bound is generous; a length field above it can only be damage
	// and is never waited for or allocated.
	maxWALRecordBytes = 1 << 30

	opCreate = 'c'
	opInsert = 'i'
	opUpdate = 'u'
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walRecord is one logical WAL record.
type walRecord struct {
	op    byte
	table string
	rows  []*Row       // insert: the rows (one, as written by this package)
	row   *Row         // update: the full new row
	sch   *TableSchema // create
}

// encode writes the record's payload.
func (rec walRecord) encode(c *canonWriter) error {
	c.tag(rec.op)
	c.str(rec.table)
	switch rec.op {
	case opCreate:
		b, err := json.Marshal(rec.sch)
		if err != nil {
			return err
		}
		c.str(string(b))
	case opInsert:
		c.uint(uint64(len(rec.rows)))
		for _, r := range rec.rows {
			if err := c.rowBody(r); err != nil {
				return err
			}
		}
	case opUpdate:
		return c.rowBody(rec.row)
	}
	return c.err
}

// decodeWALRecord parses one frame payload. Row records are decoded
// against their table's layout in ts, into rows from that table's slabs.
func decodeWALRecord(payload []byte, ts *tableSet) (walRecord, error) {
	c := canonReader{b: payload, compact: true}
	var rec walRecord
	var err error
	if rec.op, err = c.tag(); err != nil {
		return rec, err
	}
	if rec.table, err = c.str(); err != nil {
		return rec, err
	}
	var t *table
	if rec.op != opCreate {
		var ok bool
		if t, ok = ts.byName[rec.table]; !ok {
			return rec, fmt.Errorf("record %q for unknown table %s", rec.op, rec.table)
		}
	}
	switch rec.op {
	case opCreate:
		b, err := c.bytes()
		if err != nil {
			return rec, err
		}
		rec.sch = new(TableSchema)
		if err := json.Unmarshal(b, rec.sch); err != nil {
			return rec, fmt.Errorf("create record for %s: %v", rec.table, err)
		}
	case opInsert:
		n, err := c.uint()
		if err != nil {
			return rec, err
		}
		// A row is at least its id and one tag per column, so a hostile
		// count cannot size the slice past the payload.
		if n > uint64(len(c.b)) {
			return rec, fmt.Errorf("insert record for %s claims %d rows in %d bytes", rec.table, n, len(c.b))
		}
		rec.rows = make([]*Row, n)
		for i := range rec.rows {
			rec.rows[i] = t.newRow()
			if err := c.rowBody(rec.rows[i]); err != nil {
				return rec, err
			}
		}
	case opUpdate:
		rec.row = t.newRow()
		if err := c.rowBody(rec.row); err != nil {
			return rec, err
		}
	default:
		// Includes 'd', which an earlier grammar reserved for a delete
		// record: no binary ever wrote one, and rows are never deleted.
		return rec, fmt.Errorf("unknown WAL op %q", rec.op)
	}
	if len(c.b) != 0 {
		return rec, fmt.Errorf("%d trailing bytes after a %q record", len(c.b), rec.op)
	}
	return rec, nil
}

// readFrame parses the frame at the start of b, which must carry seq want,
// and returns its payload (aliasing b) and size. On error, size is how much
// of b the bad frame covers — all of it when the frame is cut short or its
// length is implausible — so the caller can tell a torn final frame (nothing
// after it) from damage with records behind it.
func readFrame(b []byte, want uint64) (payload []byte, size int, err error) {
	if len(b) < walFrameOverhead {
		return nil, len(b), fmt.Errorf("%d bytes, shorter than a frame", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxWALRecordBytes || walFrameOverhead+int(n) > len(b) {
		return nil, len(b), fmt.Errorf("%d-byte payload with %d bytes left", n, len(b)-walFrameOverhead)
	}
	size = walFrameOverhead + int(n)
	body := b[:size-walTrailerSize]
	if crc32.Checksum(body, walCRC) != binary.LittleEndian.Uint32(b[len(body):]) {
		return nil, size, errors.New("checksum mismatch")
	}
	if seq := binary.LittleEndian.Uint64(b[4:]); seq != want {
		return nil, size, fmt.Errorf("seq %d where %d belongs", seq, want)
	}
	return body[walHeaderSize:], size, nil
}

type walWriter struct {
	mu   sync.Mutex // guards f, w, sync flag, seq, fileStart
	f    *os.File
	w    *bufio.Writer
	sync bool
	seq  uint64 // records appended so far, over the partition's whole history

	// dir is the partition's segment directory and fileStart the seq of
	// the current segment's first record.
	dir       string
	fileStart uint64

	// frame is the scratch one record is encoded into (through enc) before
	// it reaches w; reused under mu, so a steady-state append allocates
	// nothing.
	frame bytes.Buffer
	enc   canonWriter

	// Group-commit state. Concurrent Flush callers elect one leader that
	// flushes (and fsyncs) everything appended so far; the rest wait on
	// cond and return as soon as `committed` covers the records they saw.
	// Loader shards meet here on their FlushEvery tick, when each flushes
	// the whole store. rotate() also rides this state to exclude a leader whose
	// fsync holds f outside mu.
	cmu        sync.Mutex
	cond       *sync.Cond
	committing bool
	committed  uint64 // highest seq known flushed (and synced, if enabled)
	syncs      uint64 // fsyncs performed, for observing group-commit coalescing

	// Pre-resolved per-partition telemetry children (Vec.With locks and
	// must stay off the append path).
	mRecords  *telemetry.Counter
	mFlushes  *telemetry.Counter
	mFsyncs   *telemetry.Counter
	mFsyncLat *telemetry.Histogram
}

// newWalWriter wraps f, partition part's open append segment in dir: the
// segment starts at record fileStart, and seq records exist (and are on
// disk) across the whole chain.
func newWalWriter(f *os.File, part int, dir string, seq, fileStart uint64) *walWriter {
	label := strconv.Itoa(part)
	w := &walWriter{
		f:         f,
		w:         bufio.NewWriterSize(f, 256*1024),
		dir:       dir,
		seq:       seq,
		fileStart: fileStart,
		committed: seq, // everything recovered is on disk by definition
		mRecords:  mWALRecords.With(label),
		mFlushes:  mWALFlushes.With(label),
		mFsyncs:   mWALFsyncs.With(label),
		mFsyncLat: mWALFsyncSeconds.With(label),
	}
	w.cond = sync.NewCond(&w.cmu)
	w.enc = canonWriter{w: &w.frame, compact: true}
	return w
}

// append frames rec as the partition's next record. Nothing reaches the
// segment unless the whole record encoded.
func (w *walWriter) append(rec walRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var fixed [walHeaderSize]byte // the header's place first, the checksum's bytes last
	w.frame.Reset()
	w.frame.Write(fixed[:])
	w.enc.err = nil
	if err := rec.encode(&w.enc); err != nil {
		return err
	}
	n := w.frame.Len() - walHeaderSize
	if n > maxWALRecordBytes {
		return fmt.Errorf("relstore: WAL record for %s is %d bytes, over the %d cap", rec.table, n, maxWALRecordBytes)
	}
	b := w.frame.Bytes()
	binary.LittleEndian.PutUint32(b, uint32(n))
	binary.LittleEndian.PutUint64(b[4:], w.seq+1)
	binary.LittleEndian.PutUint32(fixed[:], crc32.Checksum(b, walCRC))
	w.frame.Write(fixed[:walTrailerSize])
	if _, err := w.w.Write(w.frame.Bytes()); err != nil {
		return err
	}
	w.seq++
	w.mRecords.Inc()
	return nil
}

func (w *walWriter) setSync(on bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sync = on
}

func (w *walWriter) logCreate(s *TableSchema) error {
	return w.append(walRecord{op: opCreate, table: s.Name, sch: s})
}

func (w *walWriter) logInsert(t *table, rows []*Row) error {
	return w.append(walRecord{op: opInsert, table: t.lay.schema.Name, rows: rows})
}

func (w *walWriter) logUpdate(t *table, full *Row) error {
	return w.append(walRecord{op: opUpdate, table: t.lay.schema.Name, row: full})
}

// flush makes every record appended before the call durable (fsynced when
// SetSync is on). Concurrent callers group-commit: one leader performs the
// bufio flush and fsync for everything appended so far, the rest block
// until the leader's commit covers their records. The fsync itself runs
// without holding the append mutex, so shards keep appending while the
// disk syncs.
func (w *walWriter) flush() error {
	w.mFlushes.Inc()
	w.mu.Lock()
	target := w.seq
	w.mu.Unlock()

	w.cmu.Lock()
	for {
		if w.committed >= target {
			w.cmu.Unlock()
			return nil
		}
		if !w.committing {
			break
		}
		w.cond.Wait()
	}
	w.committing = true
	w.cmu.Unlock()

	w.mu.Lock()
	upto := w.seq
	t0 := time.Now()
	err := w.w.Flush()
	doSync := w.sync
	f := w.f
	w.mu.Unlock()
	if err == nil && doSync {
		err = f.Sync()
	}

	w.cmu.Lock()
	if err == nil && doSync {
		w.syncs++
		w.mFsyncs.Inc()
		w.mFsyncLat.ObserveSince(t0)
	}
	w.committing = false
	if err == nil && upto > w.committed {
		w.committed = upto
	}
	w.cond.Broadcast()
	w.cmu.Unlock()
	return err
}

// rotate cuts the WAL at its current record high-water S: it flushes (and
// fsyncs, when sync is on) and closes the current segment, then opens a
// fresh one starting at S+1. The caller holds the partition's writeMu, so
// no append can interleave; rotate still excludes an in-flight group-commit
// leader, which touches f outside mu during its fsync. When the current
// segment holds no records it is reused and nothing is cut. Returns S.
func (w *walWriter) rotate() (uint64, error) {
	w.cmu.Lock()
	for w.committing {
		w.cond.Wait()
	}
	w.committing = true
	w.cmu.Unlock()

	done := func(committed uint64) {
		w.cmu.Lock()
		w.committing = false
		if committed > w.committed {
			w.committed = committed
		}
		w.cond.Broadcast()
		w.cmu.Unlock()
	}

	w.mu.Lock()
	S := w.seq
	if S+1 == w.fileStart {
		w.mu.Unlock()
		done(0)
		return S, nil
	}
	err := w.w.Flush()
	if err == nil && w.sync {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		w.mu.Unlock()
		done(0)
		return S, err
	}
	nf, err := os.OpenFile(walPath(w.dir, S+1), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		w.mu.Unlock()
		done(0)
		return S, err
	}
	w.f = nf
	w.w = bufio.NewWriterSize(nf, 256*1024)
	w.fileStart = S + 1
	w.mu.Unlock()
	done(S)
	return S, nil
}

func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

func walPath(dir string, start uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%020d.log", start))
}

// SetSync makes every Flush also fsync the WAL files: full durability at
// the cost of one disk sync per commit per partition, the trade a
// production archive makes and the reason the loader batches inserts.
// No-op for in-memory stores.
func (s *Store) SetSync(on bool) {
	for _, p := range s.parts {
		if w := p.wal.Load(); w != nil {
			w.setSync(on)
		}
	}
}

// Syncs reports how many fsyncs the WALs have performed, summed over
// partitions. With concurrent Flush callers this is typically far below
// the number of Flush calls — the visible effect of group commit.
// In-memory stores report 0.
func (s *Store) Syncs() uint64 {
	var total uint64
	for _, p := range s.parts {
		w := p.wal.Load()
		if w == nil {
			continue
		}
		w.cmu.Lock()
		total += w.syncs
		w.cmu.Unlock()
	}
	return total
}

// Flush forces buffered WAL records to the OS on every partition,
// flushing partitions in parallel — each partition's group commit and
// fsync is independent, which is the point of the parallel WAL.
// In-memory stores return nil.
func (s *Store) Flush() error { return flushWALs(s.parts) }

// PartitionSet is the subset of a store's partitions that one writer owns
// (a loader shard). Its Flush is Store.Flush for those partitions only, so
// the writer's own commits neither wait for nor fsync records other writers
// appended to theirs.
type PartitionSet struct{ parts []*partition }

// PartitionSet resolves the listed partition indexes once, for a writer
// that flushes them many times.
func (s *Store) PartitionSet(idx ...int) PartitionSet {
	ps := PartitionSet{parts: make([]*partition, len(idx))}
	for i, p := range idx {
		ps.parts[i] = s.parts[p]
	}
	return ps
}

func (ps PartitionSet) Flush() error { return flushWALs(ps.parts) }

func flushWALs(parts []*partition) error {
	if len(parts) == 1 {
		w := parts[0].wal.Load()
		if w == nil {
			return nil
		}
		return w.flush()
	}
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		w := p.wal.Load()
		if w == nil {
			continue
		}
		wg.Add(1)
		go func(i int, w *walWriter) {
			defer wg.Done()
			errs[i] = w.flush()
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes every partition's WAL, waiting out any
// in-flight background checkpoint first. The store remains usable in
// memory but stops persisting. In-memory stores return nil.
func (s *Store) Close() error {
	var first error
	for _, p := range s.parts {
		// Taking ckptMu waits for a running checkpoint; a checkpoint that
		// starts later sees the nil wal and no-ops.
		p.ckptMu.Lock()
		w := p.wal.Swap(nil)
		p.ckptMu.Unlock()
		if w != nil {
			if err := w.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	unregisterCheckpointTelemetry(s)
	return first
}

// applyRecord applies one decoded WAL record into partition p at epoch 1.
// Create records go through CreateTable (idempotent, installs the table in
// every partition); row records touch only p's table instances, and a row
// id above idLimit is refused (errRowID).
func (s *Store) applyRecord(p *partition, rec walRecord, idLimit int64) error {
	const e = 1 // all replayed history lands in one epoch
	if rec.op == opCreate {
		return s.CreateTable(*rec.sch)
	}
	t := p.tables.Load().byName[rec.table]
	switch rec.op {
	case opInsert:
		for _, row := range rec.rows {
			if err := checkRowID(row.id, idLimit); err != nil {
				return fmt.Errorf("insert into %s: %w", rec.table, err)
			}
			t.putRow(row, e)
			t.live.Add(1)
			t.noteID(row.id)
		}
	case opUpdate:
		row := rec.row
		if err := checkRowID(row.id, idLimit); err != nil {
			return fmt.Errorf("update of %s: %w", rec.table, err)
		}
		if c, ok := t.rows.Load(row.id); ok {
			if old := c.liveVersion(); old != nil {
				t.supersede(c, old, row, e)
				// Both versions carry epoch 1; nothing can ever read the
				// superseded one, so drop it immediately.
				pruneChain(c, e)
				return nil
			}
		}
		t.putRow(row, e)
		t.live.Add(1)
	}
	return nil
}
