package relstore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// On-disk layout: a store directory holds a MANIFEST fixing
// the partition count plus one subdirectory per partition, each with its
// own WAL segment chain and checkpoint images:
//
//	dir/MANIFEST                      {"version":2,"partitions":N}
//	dir/p000/wal-<start>.log          WAL segments of binary frames (wal.go); <start> = seq of first record
//	dir/p000/checkpoint-<seq>.ck      canonical state image covering WAL 1..<seq>
//
// A checkpoint cuts the partition's WAL exactly at its record high-water S
// (epoch publish and WAL append both happen under the partition's writer
// mutex, so "state at the pinned epoch" and "records 1..S" name the same
// thing), writes the canonical image for that epoch, and then deletes the
// WAL segments and older checkpoints it supersedes. Recovery is therefore
// load-newest-checkpoint + replay-segments-with-start-greater-than-S, and
// is bit-identical (by Snapshot.Hash) to replaying the whole history.
//
// Checkpoint image layout: one JSON header line (version, partition, seq,
// table schemas in creation order), the canonical state serialization from
// canon.go (the exact framing Snapshot.Hash digests), and a trailing raw
// SHA-256 of everything before it. The footer is verified before any row
// is applied, so a torn checkpoint write can never half-load; recovery
// falls back to the previous image, whose WAL segments are only deleted
// after a successor is durable.

// DefaultCheckpointEvery is the per-partition WAL record count between
// automatic checkpoints when Options doesn't override it.
const DefaultCheckpointEvery = 1 << 16

// Options configures OpenDir.
type Options struct {
	// Partitions is the partition count for a newly created directory;
	// 0 means 1, and a count below 0 or above maxPartitions is an error.
	// An existing directory's MANIFEST always wins, so a store reopens with
	// the partition count it was created with.
	Partitions int
	// CheckpointEvery is the number of WAL records a partition absorbs
	// before an automatic background checkpoint; 0 means
	// DefaultCheckpointEvery. Negative is impossible (unsigned); use
	// math.MaxUint64 to effectively disable automatic checkpoints.
	CheckpointEvery uint64
}

type dirManifest struct {
	Version    int `json:"version"`
	Partitions int `json:"partitions"`
}

type ckptHeader struct {
	Version   int           `json:"version"`
	Partition int           `json:"partition"`
	Seq       uint64        `json:"seq"`
	Tables    []TableSchema `json:"tables"`
}

// errInvalidCkpt marks a checkpoint image that failed verification (short
// file, bad footer, unparsable header) — recovery skips it and falls back
// to an older image, never half-applying it.
var errInvalidCkpt = errors.New("relstore: invalid checkpoint image")

func ckptPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%020d.ck", seq))
}

func partDirName(i int) string { return fmt.Sprintf("p%03d", i) }

// maxPartitions bounds the partition count of a new directory. It is the
// width of the hash space archive.Route folds workflow uuids into before
// taking them modulo the partition count: partitions beyond it could never
// receive a workflow, only WAL chains and checkpoint schedules.
const maxPartitions = 64

// manifestVersion is the only store-directory layout this build reads or
// writes. Version 1 held the same files with newline-delimited JSON WAL
// records.
const manifestVersion = 2

// errDirChanged marks a recovery that found the directory changing under
// it: a listed file vanished, or the WAL no longer continues from the image
// just loaded. That is a live writer's checkpoint cleanup, and LoadDir
// answers it by starting over from a fresh listing.
var errDirChanged = errors.New("relstore: store directory changed during load")

// errRowID marks a decoded primary key that no directory could hold. A
// table's ids are allocated 1, 2, 3, … only once an insert has passed every
// check (partition.insert), and rows are never deleted, so a table holding
// id N holds N rows, each occupying at least one byte of some checkpoint
// image or WAL segment. An id above the bytes recovery reads is corruption;
// trusting it would size the row map from it.
var errRowID = errors.New("row id beyond the bytes that hold the store")

// checkRowID refuses id unless 1 <= id <= limit.
func checkRowID(id, limit int64) error {
	if id < 1 || id > limit {
		return fmt.Errorf("%w: id %d, %d bytes", errRowID, id, limit)
	}
	return nil
}

// dirBytes is the size of every file in dir's partition directories: the
// row-id bound for recovering dir (see errRowID).
func dirBytes(dir string, parts int) int64 {
	var n int64
	for i := 0; i < parts; i++ {
		// A directory that cannot be listed fails that partition's recovery.
		ents, _ := os.ReadDir(filepath.Join(dir, partDirName(i)))
		for _, e := range ents {
			if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
				n += info.Size()
			}
		}
	}
	return n
}

// rejectFile fails when path names a regular file: the one-file database
// layout is gone, and such a file is rebuilt as a directory from its event
// log.
func rejectFile(path string) error {
	if st, err := os.Stat(path); err == nil && !st.IsDir() {
		return fmt.Errorf("relstore: %s is a file, not a store directory; rebuild it from the event log with stampede-replay -out DIR", path)
	}
	return nil
}

// readManifest reads and checks dir's MANIFEST. A missing one is reported
// as an error wrapping os.ErrNotExist.
func readManifest(dir string) (dirManifest, error) {
	var m dirManifest
	b, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		return m, fmt.Errorf("relstore: %s is not a store directory: %w", dir, err)
	}
	if err := json.Unmarshal(b, &m); err != nil || m.Partitions < 1 {
		return m, fmt.Errorf("relstore: bad MANIFEST in %s", dir)
	}
	if m.Version == 1 {
		return m, fmt.Errorf("relstore: %s: MANIFEST version 1 stores JSON WAL records, which this build no longer reads (version %d frames them in binary); rebuild the directory from its event log with stampede-replay -out DIR", dir, manifestVersion)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("relstore: %s: MANIFEST version %d, but this build only reads version %d", dir, m.Version, manifestVersion)
	}
	return m, nil
}

// OpenDir opens (or creates) a partitioned, checkpoint-capable store at
// dir: it loads each partition's newest valid checkpoint, replays that
// partition's WAL tail (truncating a torn final record), and attaches the
// WAL writers. The partition count of an existing directory comes from its
// MANIFEST; opts.Partitions only applies to a fresh directory. OpenDir
// assumes it is the directory's only writer; a process that wants to read
// a directory another process may be writing uses LoadDir.
func OpenDir(dir string, opts Options) (*Store, error) {
	if err := rejectFile(dir); err != nil {
		return nil, err
	}
	m, err := readManifest(dir)
	if errors.Is(err, os.ErrNotExist) {
		if opts.Partitions < 0 || opts.Partitions > maxPartitions {
			return nil, fmt.Errorf("relstore: %d partitions for new store directory %s: the count must be between 1 and %d", opts.Partitions, dir, maxPartitions)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		m = dirManifest{Version: manifestVersion, Partitions: max(opts.Partitions, 1)}
		b, _ := json.Marshal(m)
		err = writeFileSync(filepath.Join(dir, "MANIFEST"), append(b, '\n'))
	}
	if err != nil {
		return nil, err
	}

	s := NewStoreN(m.Partitions)
	s.dir = dir
	s.ckptEvery = opts.CheckpointEvery
	if s.ckptEvery == 0 {
		s.ckptEvery = DefaultCheckpointEvery
	}
	for i, p := range s.parts {
		p.dir = filepath.Join(dir, partDirName(i))
		if err := os.MkdirAll(p.dir, 0o755); err != nil {
			return nil, err
		}
	}
	// Recover every partition before attaching any writer: replaying
	// partition k's create records runs CreateTable across all partitions,
	// which must not be re-logged into already-attached WALs.
	seqs, starts, err := s.recoverAll(dir, true)
	if err != nil {
		return nil, err
	}
	for i, p := range s.parts {
		if err := p.attachWAL(seqs[i], starts[i]); err != nil {
			return nil, err
		}
	}
	registerCheckpointTelemetry(s)
	return s, nil
}

// loadDirAttempts bounds how often LoadDir restarts after losing a race
// with the writer's checkpoint cleanup.
const loadDirAttempts = 3

// LoadDir reads the store directory at dir into an in-memory store without
// touching the directory: no write, truncate, rename, mkdir or remove. It
// is how a reader process (dashboard, statistics, analyzer) looks at a
// database a loader may still be writing, where OpenDir's repairs and WAL
// writer would corrupt the live writer's files.
//
// Each partition is its newest valid checkpoint plus its WAL tail, exactly
// what OpenDir would recover had the writer crashed the moment that
// partition was read: a torn final record ends the partition's replay (and
// stays on disk), and partitions are read one after another, so the result
// is a prefix of every partition's history rather than one cut across
// them. A load that loses a race with the writer's checkpoint (a listed
// file vanished, the WAL no longer continues from the image it loaded, or a
// row id outgrew the bytes listed) starts over from a fresh listing, at
// most loadDirAttempts times. Writes
// to the returned store stay in memory.
func LoadDir(dir string) (*Store, error) {
	if err := rejectFile(dir); err != nil {
		return nil, err
	}
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	for attempt := 1; ; attempt++ {
		s := NewStoreN(m.Partitions)
		_, _, err := s.recoverAll(dir, false)
		if err == nil {
			return s, nil
		}
		if !errors.Is(err, errDirChanged) || attempt == loadDirAttempts {
			return nil, err
		}
	}
}

// recoverAll rebuilds every partition of an empty store from dir and
// publishes the result at epoch 1. It returns, per partition, the recovered
// record high-water and the start of the segment appends continue in (see
// partition.recover). repair is OpenDir's licence to fix the directory up
// on the way; without it nothing on disk is touched.
func (s *Store) recoverAll(dir string, repair bool) (seqs, starts []uint64, err error) {
	seqs = make([]uint64, len(s.parts))
	starts = make([]uint64, len(s.parts))
	idLimit := dirBytes(dir, len(s.parts))
	for i, p := range s.parts {
		pdir := filepath.Join(dir, partDirName(i))
		seqs[i], starts[i], err = p.recover(s, pdir, repair, idLimit)
		if !repair && (errors.Is(err, os.ErrNotExist) || errors.Is(err, errRowID)) {
			// Listed a moment ago: a live writer's checkpoint dropped it,
			// or its appends since then hold ids past the bytes listed.
			err = fmt.Errorf("%w: %v", errDirChanged, err)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("relstore: recovering %s: %w", pdir, err)
		}
	}
	for _, p := range s.parts {
		p.epoch.Store(1)
	}
	return seqs, starts, nil
}

// recover rebuilds one partition from the newest valid checkpoint in pdir
// plus the WAL segments past it. It returns the recovered record high-water
// and the start of the segment new appends should continue in (0 when a
// fresh segment must be created). With repair set it also clears what a
// crash left behind — a torn final record, segments a checkpoint already
// covers, stale temp images. A row id above idLimit is refused (errRowID).
func (p *partition) recover(s *Store, pdir string, repair bool, idLimit int64) (seq, fileStart uint64, err error) {
	ckpts, err := listNumbered(pdir, "checkpoint-", ".ck")
	if err != nil {
		return 0, 0, err
	}
	var base uint64
	for i := len(ckpts) - 1; i >= 0; i-- { // newest first
		got, lerr := p.loadCheckpoint(s, ckpts[i].path, idLimit)
		if lerr == nil {
			base = got
			p.lastCkptSeq.Store(got)
			if st, serr := os.Stat(ckpts[i].path); serr == nil {
				p.lastCkptBytes.Store(st.Size())
				p.lastCkptUnix.Store(st.ModTime().UnixNano())
			}
			break
		}
		// Fall back to the next older image past an invalid one — and,
		// as the directory's only user, past an unreadable one.
		if !errors.Is(lerr, errInvalidCkpt) && !(repair && errors.Is(lerr, os.ErrNotExist)) {
			return 0, 0, lerr
		}
	}

	files, err := listNumbered(pdir, "wal-", ".log")
	if err != nil {
		return 0, 0, err
	}
	seq = base
	for idx, wf := range files {
		if wf.start <= base {
			// Fully covered by the checkpoint (segments are cut exactly at
			// checkpoint boundaries); left behind only if a post-checkpoint
			// cleanup crashed, or has not run yet.
			if repair {
				_ = os.Remove(wf.path)
			}
			continue
		}
		if wf.start != seq+1 {
			err := fmt.Errorf("WAL gap: segment %s after seq %d", filepath.Base(wf.path), seq)
			if !repair {
				// A live writer's checkpoint dropped the segments between.
				err = fmt.Errorf("%w: %v", errDirChanged, err)
			}
			return 0, 0, err
		}
		newest := idx == len(files)-1
		n, rerr := p.replaySegment(s, wf, newest, repair, idLimit)
		if rerr != nil {
			return 0, 0, rerr
		}
		seq = wf.start - 1 + n
		fileStart = wf.start
	}
	if repair {
		// Clear stale temp images from an interrupted checkpoint write.
		tmps, _ := filepath.Glob(filepath.Join(pdir, "*.tmp"))
		for _, t := range tmps {
			_ = os.Remove(t)
		}
	}
	return seq, fileStart, nil
}

// replaySegment applies one WAL segment's records into the partition and
// returns how many it held. A frame that is cut short, fails its checksum
// or carries the wrong seq is tolerated only as the last bytes of the
// newest segment (crash mid-append, or a live writer mid-flush): replay
// stops there, and with repair set the segment is truncated back to the
// last good frame so it is clean for appending. Anywhere else it is
// corruption and fails recovery.
func (p *partition) replaySegment(s *Store, wf numbered, newest, repair bool, idLimit int64) (uint64, error) {
	data, err := os.ReadFile(wf.path)
	if err != nil {
		return 0, err
	}
	var records uint64
	for off := 0; off < len(data); records++ {
		payload, size, err := readFrame(data[off:], wf.start+records)
		if err != nil {
			if !newest || off+size != len(data) {
				return records, fmt.Errorf("%s: corrupt record at offset %d: %w", wf.path, off, err)
			}
			if repair {
				if err := truncateSync(wf.path, int64(off)); err != nil {
					return records, fmt.Errorf("%s: truncating torn tail: %w", wf.path, err)
				}
			}
			break
		}
		rec, err := decodeWALRecord(payload, p.tables.Load())
		if err == nil {
			err = s.applyRecord(p, rec, idLimit)
		}
		if err != nil {
			return records, fmt.Errorf("%s: record at offset %d: %w", wf.path, off, err)
		}
		off += size
	}
	return records, nil
}

func truncateSync(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// attachWAL opens (or creates) the partition's append segment and installs
// the writer with its recovered sequence state.
func (p *partition) attachWAL(seq, fileStart uint64) error {
	if fileStart == 0 {
		fileStart = seq + 1
	}
	f, err := os.OpenFile(walPath(p.dir, fileStart), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	p.wal.Store(newWalWriter(f, p.idx, p.dir, seq, fileStart))
	return nil
}

// Checkpoint forces a checkpoint of every partition now: each cuts its
// WAL at the current high-water, writes a canonical state image, and
// drops the WAL segments the image supersedes. Safe to call concurrently
// with writers and snapshots; partitions checkpoint independently.
func (s *Store) Checkpoint() error {
	var first error
	for _, p := range s.parts {
		if err := p.checkpoint(s); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// checkpoint writes one partition's state image and truncates its WAL.
// See the package comment at the top of this file for the protocol; the
// key invariant is that the epoch pin and the WAL cut are taken under one
// writeMu critical section, so the image is exactly records 1..S.
func (p *partition) checkpoint(s *Store) error {
	if p.dir == "" {
		return nil
	}
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	w := p.wal.Load()
	if w == nil {
		return nil
	}
	p.writeMu.Lock()
	pin := p.pin()
	ts := p.tables.Load()
	S, err := w.rotate()
	p.writeMu.Unlock()
	defer p.unpin(pin)
	if err != nil {
		return err
	}
	p.recsSinceCkpt.Store(0)
	if S == 0 || (p.lastCkptUnix.Load() != 0 && S == p.lastCkptSeq.Load()) {
		return nil // nothing new to cover
	}
	t0 := time.Now()
	bytesWritten, err := p.writeCheckpointImage(ts, pin.epoch, S)
	if err != nil {
		return err
	}
	p.lastCkptSeq.Store(S)
	p.lastCkptBytes.Store(bytesWritten)
	p.lastCkptDurNS.Store(int64(time.Since(t0)))
	p.lastCkptUnix.Store(time.Now().UnixNano())
	p.cleanupAfterCheckpoint(S)
	return nil
}

// writeCheckpointImage serializes the partition's state at epoch into
// checkpoint-<S>.ck via a temp file, fsync and rename, and returns the
// image size.
func (p *partition) writeCheckpointImage(ts *tableSet, epoch, S uint64) (int64, error) {
	final := ckptPath(p.dir, S)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	fail := func(e error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, e
	}
	h := sha256.New()
	bw := bufio.NewWriterSize(f, 256*1024)
	mw := io.MultiWriter(bw, h)
	schemas := make([]TableSchema, 0, len(ts.order))
	for _, name := range ts.order {
		t := ts.byName[name]
		sc := *t.lay.schema
		sc.Indexes = t.ixs.Load().decl
		schemas = append(schemas, sc)
	}
	hb, err := json.Marshal(ckptHeader{Version: 1, Partition: p.idx, Seq: S, Tables: schemas})
	if err != nil {
		return fail(err)
	}
	if _, err := mw.Write(append(hb, '\n')); err != nil {
		return fail(err)
	}
	cw := &canonWriter{w: mw}
	if err := cw.writeState(ts, epoch); err != nil {
		return fail(err)
	}
	if _, err := bw.Write(h.Sum(nil)); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(p.dir)
	st, err := os.Stat(final)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// cleanupAfterCheckpoint drops what the durable image at S supersedes: WAL
// segments holding only records <= S (segments are cut at checkpoint
// boundaries, so start <= S implies that) and older checkpoint images.
// Best-effort — recovery tolerates and re-deletes leftovers.
func (p *partition) cleanupAfterCheckpoint(S uint64) {
	if files, err := listNumbered(p.dir, "wal-", ".log"); err == nil {
		for _, wf := range files {
			if wf.start <= S {
				_ = os.Remove(wf.path)
			}
		}
	}
	if ckpts, err := listNumbered(p.dir, "checkpoint-", ".ck"); err == nil {
		for _, ck := range ckpts {
			if ck.start < S {
				_ = os.Remove(ck.path)
			}
		}
	}
}

// loadCheckpoint verifies and applies one checkpoint image, returning the
// WAL seq it covers. The SHA-256 footer is checked over the whole image
// before anything is applied; verification failures return errInvalidCkpt
// so recovery can fall back to an older image. A row id above idLimit —
// for an image on its own, the image's length — is refused (errRowID).
func (p *partition) loadCheckpoint(s *Store, path string, idLimit int64) (uint64, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, err // a read-only load wants to know (recoverAll)
	}
	if err != nil {
		return 0, errInvalidCkpt
	}
	if len(b) < sha256.Size+2 {
		return 0, errInvalidCkpt
	}
	body := b[:len(b)-sha256.Size]
	var want [sha256.Size]byte
	copy(want[:], b[len(b)-sha256.Size:])
	if sha256.Sum256(body) != want {
		return 0, errInvalidCkpt
	}
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		return 0, errInvalidCkpt
	}
	var hdr ckptHeader
	if err := json.Unmarshal(body[:nl], &hdr); err != nil {
		return 0, errInvalidCkpt
	}
	if hdr.Version != 1 || hdr.Partition != p.idx {
		return 0, fmt.Errorf("relstore: checkpoint %s: header mismatch (version %d, partition %d)", path, hdr.Version, hdr.Partition)
	}
	for i := range hdr.Tables {
		if err := s.CreateTable(hdr.Tables[i]); err != nil {
			return 0, err
		}
	}
	ts := p.tables.Load()
	cr := canonReader{b: body[nl+1:]}
	for len(cr.b) > 0 {
		if err := cr.expect("table"); err != nil {
			return 0, fmt.Errorf("relstore: checkpoint %s: %w", path, err)
		}
		name, err := cr.str()
		if err != nil {
			return 0, err
		}
		t, ok := ts.byName[name]
		if !ok {
			return 0, fmt.Errorf("relstore: checkpoint %s: unknown table %s", path, name)
		}
		count, err := cr.uint()
		if err != nil {
			return 0, err
		}
		for i := uint64(0); i < count; i++ {
			off := len(body) - len(cr.b)
			if err := cr.expect("row"); err != nil {
				return 0, err
			}
			row := t.newRow()
			if err := cr.rowBody(row); err != nil {
				return 0, err
			}
			if err := checkRowID(row.id, idLimit); err != nil {
				return 0, fmt.Errorf("relstore: checkpoint %s: %s row at offset %d: %w", path, name, off, err)
			}
			t.putRow(row, 1)
			t.live.Add(1)
			t.noteID(row.id)
		}
	}
	return hdr.Seq, nil
}

// CheckpointStat describes one partition's last completed checkpoint.
type CheckpointStat struct {
	Partition int
	Taken     bool          // false when the partition has never checkpointed
	Seq       uint64        // WAL record high-water the image covers
	Bytes     int64         // image size on disk
	Duration  time.Duration // wall time the image took to write
	Age       time.Duration // time since the image completed
}

// CheckpointStats reports per-partition checkpoint state, for the
// dashboard status page and operator tooling. In-memory stores report one
// never-checkpointed entry per partition.
func (s *Store) CheckpointStats() []CheckpointStat {
	out := make([]CheckpointStat, len(s.parts))
	for i, p := range s.parts {
		st := CheckpointStat{Partition: i}
		if un := p.lastCkptUnix.Load(); un != 0 {
			st.Taken = true
			st.Seq = p.lastCkptSeq.Load()
			st.Bytes = p.lastCkptBytes.Load()
			st.Duration = time.Duration(p.lastCkptDurNS.Load())
			st.Age = time.Since(time.Unix(0, un))
		}
		out[i] = st
	}
	return out
}

// numbered is one <prefix><%020d><suffix> file.
type numbered struct {
	path  string
	start uint64
}

// listNumbered lists dir's prefix/suffix-named files in ascending numeric
// order.
func listNumbered(dir, prefix, suffix string) ([]numbered, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []numbered
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || len(name) <= len(prefix)+len(suffix) ||
			name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
			continue
		}
		n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
		if err != nil {
			continue
		}
		out = append(out, numbered{path: filepath.Join(dir, name), start: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out, nil
}

func writeFileSync(path string, b []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// DirInfo describes a store directory without opening it for writing.
type DirInfo struct {
	Partitions int
	Parts      []PartitionInfo
}

// PartitionInfo is one partition's on-disk recovery picture: how much a
// restart loads from the checkpoint image versus replays from the WAL
// tail.
type PartitionInfo struct {
	Partition       int
	CheckpointSeq   uint64 // WAL high-water the newest checkpoint covers; 0 = none
	CheckpointBytes int64  // newest checkpoint image size
	WALSegments     int    // segments past the checkpoint
	TailRecords     uint64 // complete records a restart will replay
	LastSeq         uint64 // record high-water across checkpoint + tail
}

// InspectDir reads a store directory's partition map and recovery state
// without replaying anything (stampede-replay -info).
func InspectDir(dir string) (*DirInfo, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	info := &DirInfo{Partitions: m.Partitions}
	for i := 0; i < m.Partitions; i++ {
		pdir := filepath.Join(dir, partDirName(i))
		pi := PartitionInfo{Partition: i}
		if ckpts, err := listNumbered(pdir, "checkpoint-", ".ck"); err == nil && len(ckpts) > 0 {
			newest := ckpts[len(ckpts)-1]
			pi.CheckpointSeq = newest.start
			if st, err := os.Stat(newest.path); err == nil {
				pi.CheckpointBytes = st.Size()
			}
		}
		pi.LastSeq = pi.CheckpointSeq
		files, err := listNumbered(pdir, "wal-", ".log")
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		for _, wf := range files {
			if wf.start <= pi.CheckpointSeq {
				continue
			}
			data, err := os.ReadFile(wf.path)
			if err != nil {
				return nil, err
			}
			var n uint64
			for off := 0; off < len(data); n++ {
				_, size, err := readFrame(data[off:], wf.start+n)
				if err != nil {
					break // what a restart would truncate, or refuse
				}
				off += size
			}
			pi.WALSegments++
			pi.TailRecords += n
			pi.LastSeq = wf.start - 1 + n
		}
		info.Parts = append(info.Parts, pi)
	}
	return info, nil
}

// Checkpoint telemetry: scrape-time gauges per partition index, fed from a
// process-wide registry of live directory-backed stores (a SetFunc closure
// must not pin a closed store, and test suites open many stores in one
// process).
var (
	mCkptAge = telemetry.NewGaugeVec("stampede_relstore_checkpoint_age_seconds",
		"Seconds since the partition's last completed checkpoint; 0 when none.", "partition")
	mCkptBytes = telemetry.NewGaugeVec("stampede_relstore_checkpoint_bytes",
		"Size of the partition's last checkpoint image, in bytes.", "partition")
	mCkptDur = telemetry.NewGaugeVec("stampede_relstore_checkpoint_duration_seconds",
		"Wall time of the partition's last checkpoint write.", "partition")

	ckptRegMu     sync.Mutex
	ckptLive      = make(map[int][]*partition) // partition index → live dir-backed partitions
	ckptInstalled = make(map[int]bool)
)

func registerCheckpointTelemetry(s *Store) {
	ckptRegMu.Lock()
	defer ckptRegMu.Unlock()
	for _, p := range s.parts {
		ckptLive[p.idx] = append(ckptLive[p.idx], p)
		if ckptInstalled[p.idx] {
			continue
		}
		ckptInstalled[p.idx] = true
		idx := p.idx
		label := strconv.Itoa(idx)
		mCkptAge.SetFunc(func() float64 {
			if q := newestCheckpointed(idx); q != nil {
				return time.Since(time.Unix(0, q.lastCkptUnix.Load())).Seconds()
			}
			return 0
		}, label)
		mCkptBytes.SetFunc(func() float64 {
			if q := newestCheckpointed(idx); q != nil {
				return float64(q.lastCkptBytes.Load())
			}
			return 0
		}, label)
		mCkptDur.SetFunc(func() float64 {
			if q := newestCheckpointed(idx); q != nil {
				return time.Duration(q.lastCkptDurNS.Load()).Seconds()
			}
			return 0
		}, label)
	}
}

// newestCheckpointed picks, among live partitions with this index, the one
// that checkpointed most recently.
func newestCheckpointed(idx int) *partition {
	ckptRegMu.Lock()
	defer ckptRegMu.Unlock()
	var best *partition
	for _, p := range ckptLive[idx] {
		if p.lastCkptUnix.Load() == 0 {
			continue
		}
		if best == nil || p.lastCkptUnix.Load() > best.lastCkptUnix.Load() {
			best = p
		}
	}
	return best
}

func unregisterCheckpointTelemetry(s *Store) {
	ckptRegMu.Lock()
	defer ckptRegMu.Unlock()
	for _, p := range s.parts {
		live := ckptLive[p.idx]
		for i, q := range live {
			if q == p {
				ckptLive[p.idx] = append(live[:i], live[i+1:]...)
				break
			}
		}
	}
}
