package relstore

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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

// Persistence: every mutation appends one JSON record to its partition's
// write-ahead log. OpenDir (and its read-only sibling LoadDir) rebuild the
// store from each partition's newest checkpoint plus its log tail, so a
// database is exactly the history of committed mutations — simple,
// crash-tolerant (a torn final line is detected, and truncated by
// OpenDir), and adequate for the monitoring archive's append-mostly
// workload. Each partition owns a chain of segment files named
// wal-<start>.log, where <start> is the sequence number of the segment's
// first record; checkpoints cut segments at their exact high-water, so
// recovery's skip rule is simply "replay segments whose start exceeds the
// checkpoint seq".

type walRecord struct {
	Op    string           `json:"op"` // create, insert, update, delete
	Table string           `json:"table"`
	Rows  []map[string]any `json:"rows,omitempty"`
	ID    int64            `json:"id,omitempty"`
	Sch   *TableSchema     `json:"schema,omitempty"`
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

	// Group-commit state. Concurrent Flush callers elect one leader that
	// flushes (and fsyncs) everything appended so far; the rest wait on
	// cond and return as soon as `committed` covers the records they saw.
	// With per-shard loader flushes this coalesces many ~200µs fsyncs
	// into one. rotate() also rides this state to exclude a leader whose
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
	return w
}

func (w *walWriter) append(rec walRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	if err := w.w.WriteByte('\n'); err != nil {
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
	return w.append(walRecord{Op: "create", Table: s.Name, Sch: s})
}

func (w *walWriter) logInsertBatch(tbl string, rows []Row) error {
	enc := make([]map[string]any, len(rows))
	for i, r := range rows {
		enc[i] = encodeRow(r)
	}
	return w.append(walRecord{Op: "insert", Table: tbl, Rows: enc})
}

func (w *walWriter) logUpdate(tbl string, id int64, full Row) error {
	return w.append(walRecord{Op: "update", Table: tbl, ID: id, Rows: []map[string]any{encodeRow(full)}})
}

func (w *walWriter) logDelete(tbl string, id int64) error {
	return w.append(walRecord{Op: "delete", Table: tbl, ID: id})
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

	// Yield before snapshotting until appends quiesce, so runnable peers
	// (e.g. loader shards that just finished a batch) get to append first
	// and ride this commit instead of electing their own leader for the
	// very next fsync. Bounded so a steady stream of un-flushed appends
	// can't starve the commit.
	// "Quiesced" means two consecutive yield rounds with no new appends:
	// a peer that needs one round of compute before it can append still
	// makes this commit instead of electing its own leader for the very
	// next fsync.
	stable := 0
	for i := 0; i < 16; i++ {
		runtime.Gosched()
		w.mu.Lock()
		cur := w.seq
		w.mu.Unlock()
		if cur == target {
			if stable++; stable >= 2 {
				break
			}
			continue
		}
		stable = 0
		target = cur
	}

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

// encodeRow renders times as RFC 3339 strings so JSON round-trips; the
// schema's column types drive decoding on replay.
func encodeRow(r Row) map[string]any {
	out := make(map[string]any, len(r))
	for k, v := range r {
		if t, ok := v.(time.Time); ok {
			out[k] = t.UTC().Format(time.RFC3339Nano)
		} else {
			out[k] = v
		}
	}
	return out
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
func (s *Store) Flush() error {
	if len(s.parts) == 1 {
		w := s.parts[0].wal.Load()
		if w == nil {
			return nil
		}
		return w.flush()
	}
	errs := make([]error, len(s.parts))
	var wg sync.WaitGroup
	for i, p := range s.parts {
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

// applyRecord applies one WAL record into partition p at epoch 1. Create
// records go through CreateTable (idempotent, installs the table in every
// partition); row records touch only p's table instances.
func (s *Store) applyRecord(p *partition, rec walRecord) error {
	const e = 1 // all replayed history lands in one epoch
	switch rec.Op {
	case "create":
		if rec.Sch == nil {
			return errors.New("create record without schema")
		}
		return s.CreateTable(*rec.Sch)
	case "insert":
		t, ok := p.tables.Load().byName[rec.Table]
		if !ok {
			return fmt.Errorf("insert into unknown table %s", rec.Table)
		}
		for _, enc := range rec.Rows {
			row, err := t.decodeRow(enc)
			if err != nil {
				return err
			}
			id := row.ID()
			if id == 0 {
				return fmt.Errorf("insert record without id in %s", rec.Table)
			}
			t.putRow(row, e)
			t.live.Add(1)
			t.noteID(id)
		}
		return nil
	case "update":
		t, ok := p.tables.Load().byName[rec.Table]
		if !ok {
			return fmt.Errorf("update of unknown table %s", rec.Table)
		}
		if len(rec.Rows) != 1 {
			return errors.New("update record without full row")
		}
		row, err := t.decodeRow(rec.Rows[0])
		if err != nil {
			return err
		}
		row["id"] = rec.ID
		if c, ok := t.rows.Load(rec.ID); ok {
			if old := c.liveVersion(); old != nil {
				t.supersede(c, old, row, e)
				// Both versions carry epoch 1; nothing can ever read the
				// superseded one, so drop it immediately.
				pruneChain(c, e)
				t.pruneRowKeys(old.row, e)
				return nil
			}
		}
		t.putRow(row, e)
		t.live.Add(1)
		return nil
	case "delete":
		t, ok := p.tables.Load().byName[rec.Table]
		if !ok {
			return fmt.Errorf("delete from unknown table %s", rec.Table)
		}
		if c, ok := t.rows.Load(rec.ID); ok {
			if old := c.liveVersion(); old != nil {
				t.kill(old, e)
				t.live.Add(-1)
				t.rows.Delete(rec.ID)
				t.pruneRowKeys(old.row, e)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown WAL op %q", rec.Op)
	}
}

// decodeRow converts a JSON-decoded map back to canonical column types.
func (t *table) decodeRow(enc map[string]any) (Row, error) {
	row := make(Row, len(enc))
	for k, v := range enc {
		ct, ok := t.colType[k]
		if !ok {
			return nil, fmt.Errorf("table %s: WAL row has unknown column %s", t.schema.Name, k)
		}
		cv, err := coerce(t.schema.Name, k, ct, v)
		if err != nil {
			return nil, err
		}
		row[k] = cv
	}
	return row, nil
}
