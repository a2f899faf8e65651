// Package eventlog is the durable source of truth for the monitoring
// pipeline: an append-only, segmented, checksummed log of every raw BP
// line the loader ingests, written *before* the parser touches it so
// malformed lines are preserved alongside well-formed events.
//
// The design follows the event-log-as-truth discipline of production
// monitoring stores (CMS persists every message so views can be rebuilt;
// R-GMA producers republish history to late joiners): the archive and
// relstore become a materialization of this log, reconstructible
// bit-identically at any point by Rebuild. Three rules make that replay
// deterministic:
//
//   - Logical clocks only. Every record carries a monotonic seq assigned
//     at append time; no wall-clock value exists anywhere in the framing
//     or the replay path, so replaying tomorrow yields the same store as
//     replaying today (snapshot-hash property tests enforce this).
//   - Content-addressed records. Each record's id is a 64-bit FNV-1a
//     hash of its exact payload bytes, verified on every read, so a
//     record's identity is its content, not its position or its arrival
//     time.
//   - Checksummed framing. Each record is framed with a CRC32C trailer
//     covering length, seq, id and payload; a crash mid-write leaves a
//     torn tail that Open detects and truncates back to the last valid
//     record.
//
// Layout: a log directory holds fixed-size segment files named
// %020d.seg by the seq of their first record. Each segment starts with a
// 16-byte header (magic, version, base seq) followed by back-to-back
// records:
//
//	segment: | "EVLG" | version u32 | base seq u64 | record* |
//	record:  | len u32 | seq u64 | cid u64 | payload | crc32c u32 |
//
// All integers are little-endian. Records never span segments.
//
// The write path is built for the loader's ingest rate: Append encodes
// into a reused in-memory buffer (zero allocations in steady state,
// enforced by alloc tests) and the buffer is group-flushed to the active
// segment when it crosses Options.FlushBytes, so per-line cost is a hash,
// a checksum and a memcpy. Durability is bounded by the flush granularity
// — a crash loses at most the unflushed tail, which recovery then
// truncates cleanly.
package eventlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Frame geometry. A record is recHeaderSize bytes of header, the payload,
// and a 4-byte CRC32C trailer computed over everything before it.
const (
	recHeaderSize  = 4 + 8 + 8 // len u32, seq u64, cid u64
	recTrailerSize = 4         // crc32c
	recOverhead    = recHeaderSize + recTrailerSize

	segHeaderSize = 4 + 4 + 8 // magic, version, base seq
	segMagic      = "EVLG"
	segVersion    = 1
	segSuffix     = ".seg"

	// MaxRecordBytes bounds one payload, matching the 1 MiB line cap of
	// the BP stream reader. A length field above it marks the frame
	// corrupt immediately, so a torn length can never make recovery
	// wait for gigabytes of phantom payload.
	MaxRecordBytes = 1 << 20
)

// Defaults for Options.
const (
	DefaultSegmentBytes = 64 << 20
	DefaultFlushBytes   = 256 << 10
)

// Errors surfaced by the decode and read paths.
var (
	// ErrCorrupt marks a frame whose checksum, content id, length or seq
	// does not hold. Inside the log body (not the tail) it is fatal.
	ErrCorrupt = errors.New("eventlog: corrupt record")
	// errShort marks an incomplete frame: a torn tail, or simply the end
	// of the flushed bytes.
	errShort = errors.New("eventlog: short record")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("eventlog: log closed")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// contentID is the 64-bit FNV-1a hash of a record's payload: the
// content address every record carries and every read verifies. Inlined
// rather than hash/fnv so the append hot path allocates nothing.
func contentID(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Options tunes a Log. The zero value means the defaults.
type Options struct {
	// SegmentBytes is the roll threshold: a flush that would push the
	// active segment past it starts a new segment first, so segments
	// stay under this size (one oversized record is the only exception).
	SegmentBytes int64
	// FlushBytes is the group-flush threshold: appended records buffer
	// in memory until this many bytes accumulate, then reach the file in
	// one write. Crash durability is bounded by this amount.
	FlushBytes int
	// Sync fsyncs the active segment on every flush. Off by default —
	// the log's replay guarantees only need the frame checksums; turn it
	// on when the log must survive power loss, not just process death.
	Sync bool
	// ReadOnly opens the log for inspection and replay without touching
	// the files: a torn tail is reported but not truncated, and Append
	// is refused.
	ReadOnly bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.FlushBytes == 0 {
		o.FlushBytes = DefaultFlushBytes
	}
	return o
}

// Record is one decoded log entry: its logical clock, its content
// address, and the raw line bytes exactly as ingested.
type Record struct {
	Seq  uint64
	CID  uint64
	Line []byte // valid until the cursor's next call; copy to retain
}

// segment is one on-disk segment file.
type segment struct {
	base uint64 // seq of the first record
	path string
}

func segName(base uint64) string {
	return fmt.Sprintf("%020d%s", base, segSuffix)
}

// Log is an append-only event log over one directory. Append, Flush,
// Cursor and the accessors are safe for concurrent use; the group-flush
// buffer is guarded by one mutex, so concurrent appenders serialize the
// (cheap) encode and share flushes.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	segs    []segment
	f       *os.File // active segment (last of segs); nil until first flush
	size    int64    // flushed bytes of the active segment
	buf     []byte   // pending encoded records
	bufBase uint64   // seq of the first buffered record
	next    uint64   // next seq to assign (first record is seq 1)
	closed  bool

	truncated int64  // torn-tail bytes dropped (or, read-only: detected) at Open
	appends   uint64 // records appended by this Log instance
	bytes     uint64 // encoded bytes appended by this Log instance
}

// Open opens (creating if needed) the log directory, recovers the tail
// of the last segment — truncating past the last valid record unless
// Options.ReadOnly — and returns the log positioned to append at the
// next seq.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if opts.ReadOnly {
		if _, err := os.Stat(dir); err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, next: 1}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, perr := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if perr != nil {
			continue
		}
		l.segs = append(l.segs, segment{base: base, path: filepath.Join(dir, name)})
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].base < l.segs[j].base })
	if err := l.recover(); err != nil {
		return nil, err
	}
	mSegments.Set(int64(len(l.segs)))
	return l, nil
}

// recover scans the last segment, establishes the next seq, and truncates
// any torn tail. Only the last segment can be torn by a crash; earlier
// segments were completed by a roll and are verified lazily by cursors.
func (l *Log) recover() error {
	for len(l.segs) > 0 {
		last := l.segs[len(l.segs)-1]
		base, lastSeq, n, validEnd, err := scanSegment(last.path, MaxRecordBytes)
		if err != nil {
			// The header itself is unreadable: the crash hit segment
			// creation before any record landed. Drop the file and
			// recover from the previous segment instead.
			fi, serr := os.Stat(last.path)
			if serr == nil {
				l.truncated += fi.Size()
			}
			if !l.opts.ReadOnly {
				if rerr := os.Remove(last.path); rerr != nil {
					return rerr
				}
			}
			l.segs = l.segs[:len(l.segs)-1]
			continue
		}
		if base != last.base {
			return fmt.Errorf("eventlog: segment %s header base %d does not match its name", last.path, base)
		}
		fi, err := os.Stat(last.path)
		if err != nil {
			return err
		}
		if tail := fi.Size() - validEnd; tail > 0 {
			l.truncated += tail
			if !l.opts.ReadOnly {
				if err := os.Truncate(last.path, validEnd); err != nil {
					return err
				}
			}
		}
		if n == 0 {
			l.next = base
		} else {
			l.next = lastSeq + 1
		}
		l.size = validEnd
		return nil
	}
	l.next = 1
	l.size = 0
	return nil
}

// scanSegment walks one segment file front to back, verifying every
// frame, and reports the header base, the last valid seq, the number of
// valid records, and the byte offset just past the last valid record.
// An unreadable or mismatched header is an error; a bad record merely
// ends the scan (that is the torn tail).
func scanSegment(path string, maxRecord int) (base, lastSeq uint64, n int, validEnd int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if len(data) < segHeaderSize || string(data[0:4]) != segMagic ||
		binary.LittleEndian.Uint32(data[4:8]) != segVersion {
		return 0, 0, 0, 0, fmt.Errorf("eventlog: %s: bad segment header", path)
	}
	base = binary.LittleEndian.Uint64(data[8:16])
	off := int64(segHeaderSize)
	want := base
	for {
		rec, sz, derr := decodeRecord(data[off:], maxRecord)
		if derr != nil || rec.Seq != want {
			return base, lastSeq, n, off, nil
		}
		lastSeq = rec.Seq
		want++
		n++
		off += int64(sz)
	}
}

// appendRecord encodes one frame onto buf and returns the extended slice.
func appendRecord(buf []byte, seq uint64, payload []byte) []byte {
	off := len(buf)
	var h [recHeaderSize]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(h[4:12], seq)
	binary.LittleEndian.PutUint64(h[12:20], contentID(payload))
	buf = append(buf, h[:]...)
	buf = append(buf, payload...)
	var c [recTrailerSize]byte
	binary.LittleEndian.PutUint32(c[:], crc32.Checksum(buf[off:], crcTable))
	return append(buf, c[:]...)
}

// decodeRecord parses one frame at the start of b. It returns the record
// (Line aliases b) and the total frame size. errShort means b ends before
// the frame does — a torn tail or simply the end of the flushed bytes;
// ErrCorrupt means the frame is complete but fails its checks. Corruption
// is always detected, never a panic (FuzzRecordRoundTrip enforces this).
func decodeRecord(b []byte, maxRecord int) (Record, int, error) {
	if len(b) < recOverhead {
		return Record{}, 0, errShort
	}
	n := int(binary.LittleEndian.Uint32(b[0:4]))
	if n > maxRecord {
		return Record{}, 0, ErrCorrupt
	}
	total := recOverhead + n
	if len(b) < total {
		return Record{}, 0, errShort
	}
	body := b[:recHeaderSize+n]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(b[recHeaderSize+n:total]) {
		return Record{}, 0, ErrCorrupt
	}
	rec := Record{
		Seq:  binary.LittleEndian.Uint64(b[4:12]),
		CID:  binary.LittleEndian.Uint64(b[12:20]),
		Line: b[recHeaderSize : recHeaderSize+n],
	}
	if contentID(rec.Line) != rec.CID {
		return Record{}, 0, ErrCorrupt
	}
	return rec, total, nil
}

// Append assigns the next seq to line and buffers its frame; the buffer
// reaches the active segment when it crosses FlushBytes (or on Flush or
// Close). The returned seq is the record's logical clock. line may be
// reused by the caller immediately. Steady state allocates nothing.
func (l *Log) Append(line []byte) (uint64, error) {
	if len(line) > MaxRecordBytes {
		return 0, fmt.Errorf("eventlog: record of %d bytes exceeds the %d cap", len(line), MaxRecordBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.opts.ReadOnly {
		return 0, errors.New("eventlog: log opened read-only")
	}
	seq := l.next
	l.next++
	if len(l.buf) == 0 {
		l.bufBase = seq
	}
	was := len(l.buf)
	l.buf = appendRecord(l.buf, seq, line)
	grew := uint64(len(l.buf) - was)
	l.appends++
	l.bytes += grew
	mAppends.Inc()
	mBytes.Add(grew)
	if len(l.buf) >= l.opts.FlushBytes {
		if err := l.flushAttachedLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// flushLocked writes the pending buffer to the active segment, rolling to
// a new segment first when the write would push it past SegmentBytes.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if l.f != nil && l.size+int64(len(l.buf)) > l.opts.SegmentBytes && l.size > segHeaderSize {
		if err := l.closeActiveLocked(); err != nil {
			return err
		}
	}
	if l.f == nil {
		if err := l.openSegmentLocked(l.bufBase); err != nil {
			return err
		}
	}
	t0 := time.Now()
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	if l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	mFlushLatency.ObserveSince(t0)
	l.size += int64(len(l.buf))
	l.buf = l.buf[:0]
	return nil
}

// openSegmentLocked creates a fresh segment whose first record is seq
// base and makes it the active file.
func (l *Log) openSegmentLocked(base uint64) error {
	path := filepath.Join(l.dir, segName(base))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var h [segHeaderSize]byte
	copy(h[0:4], segMagic)
	binary.LittleEndian.PutUint32(h[4:8], segVersion)
	binary.LittleEndian.PutUint64(h[8:16], base)
	if _, err := f.Write(h[:]); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.size = segHeaderSize
	l.segs = append(l.segs, segment{base: base, path: path})
	mSegments.Set(int64(len(l.segs)))
	return nil
}

func (l *Log) closeActiveLocked() error {
	if l.f == nil {
		return nil
	}
	if l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	// l.size is deliberately left alone: it still describes the flushed
	// bytes of the last segment, which cursors created after Close (an
	// explicitly supported case) snapshot as their read limit. A roll
	// resets it via openSegmentLocked when the next segment starts.
	err := l.f.Close()
	l.f = nil
	return err
}

// reopenActiveLocked re-opens the last recovered segment for appending.
// Called lazily on the first flush after Open found existing segments.
func (l *Log) reopenActiveLocked() error {
	last := l.segs[len(l.segs)-1]
	f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	return nil
}

// Flush forces buffered records to the active segment file.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.flushAttachedLocked()
}

// flushAttachedLocked flushes, first re-attaching to a recovered segment
// when Open left one behind (l.f nil but segments exist and the last one
// has room).
func (l *Log) flushAttachedLocked() error {
	if len(l.buf) > 0 && l.f == nil && len(l.segs) > 0 &&
		l.size+int64(len(l.buf)) <= l.opts.SegmentBytes {
		if err := l.reopenActiveLocked(); err != nil {
			return err
		}
	}
	return l.flushLocked()
}

// Close flushes pending records and closes the active segment. The log
// rejects further appends; open cursors keep reading.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.flushAttachedLocked(); err != nil {
		l.closeActiveLocked()
		return err
	}
	return l.closeActiveLocked()
}

// Appends returns how many records this Log instance appended.
func (l *Log) Appends() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends
}

// AppendedBytes returns how many encoded bytes this instance appended.
func (l *Log) AppendedBytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// SegmentInfo describes one segment for inspection.
type SegmentInfo struct {
	Base    uint64 `json:"base"`
	LastSeq uint64 `json:"last_seq"`
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
	Path    string `json:"path"`
}

// Info describes the whole log for inspection.
type Info struct {
	Segments  []SegmentInfo `json:"segments"`
	FirstSeq  uint64        `json:"first_seq"` // 0 when the log is empty
	NextSeq   uint64        `json:"next_seq"`
	Records   int           `json:"records"`
	Bytes     int64         `json:"bytes"`
	Truncated int64         `json:"truncated_bytes"` // torn tail dropped at Open
}

// Info scans every segment (verifying all frames on the way) and returns
// the log's shape. It is an integrity pass, not a hot-path call.
func (l *Log) Info() (Info, error) {
	l.mu.Lock()
	if err := l.flushAttachedLocked(); err != nil && !errors.Is(err, ErrClosed) {
		l.mu.Unlock()
		return Info{}, err
	}
	segs := append([]segment(nil), l.segs...)
	info := Info{NextSeq: l.next, Truncated: l.truncated}
	l.mu.Unlock()

	for i, sg := range segs {
		base, lastSeq, n, validEnd, err := scanSegment(sg.path, MaxRecordBytes)
		if err != nil {
			return info, err
		}
		fi, err := os.Stat(sg.path)
		if err != nil {
			return info, err
		}
		if validEnd != fi.Size() && i != len(segs)-1 {
			return info, fmt.Errorf("eventlog: %s: %w at offset %d", sg.path, ErrCorrupt, validEnd)
		}
		if info.FirstSeq == 0 && n > 0 {
			info.FirstSeq = base
		}
		info.Records += n
		info.Bytes += validEnd
		info.Segments = append(info.Segments, SegmentInfo{
			Base: base, LastSeq: lastSeq, Records: n, Bytes: validEnd, Path: sg.path,
		})
	}
	return info, nil
}
