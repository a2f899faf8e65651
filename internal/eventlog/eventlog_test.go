package eventlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// collect drains a cursor into copied records.
func collect(t *testing.T, c *Cursor) []Record {
	t.Helper()
	var out []Record
	for {
		rec, err := c.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		out = append(out, Record{Seq: rec.Seq, CID: rec.CID, Line: append([]byte(nil), rec.Line...)})
	}
}

func line(i int) []byte {
	return []byte(fmt.Sprintf("ts=2012-11-10T00:00:%02d.000001Z event=stampede.test level=Info seq=%d", i%60, i))
}

func TestAppendReadRoundTrip(t *testing.T) {
	lg, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	const n = 500
	for i := 0; i < n; i++ {
		seq, err := lg.Append(line(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("append %d: seq %d, want %d", i, seq, want)
		}
	}
	c, err := lg.Cursor(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(t, c)
	if len(recs) != n {
		t.Fatalf("read %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d", i, r.Seq)
		}
		if !bytes.Equal(r.Line, line(i)) {
			t.Fatalf("record %d: line %q, want %q", i, r.Line, line(i))
		}
		if r.CID != contentID(line(i)) {
			t.Fatalf("record %d: cid mismatch", i)
		}
	}
	if got := lg.Appends(); got != n {
		t.Fatalf("Appends() = %d, want %d", got, n)
	}
}

func TestCursorRanges(t *testing.T) {
	lg, err := Open(t.TempDir(), Options{SegmentBytes: 2 << 10, FlushBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := lg.Append(line(i)); err != nil {
			t.Fatal(err)
		}
	}
	if lg.Segments() < 2 {
		t.Fatalf("expected multiple segments, got %d", lg.Segments())
	}
	cases := []struct{ from, to, wantFirst, wantN uint64 }{
		{1, 0, 1, n},
		{0, 0, 1, n},
		{100, 200, 100, 100},
		{n, 0, n, 1},
		{n + 1, 0, 0, 0},
		{50, 50, 0, 0},
		{250, 9999, 250, n - 249},
	}
	for _, tc := range cases {
		c, err := lg.Cursor(tc.from, tc.to)
		if err != nil {
			t.Fatal(err)
		}
		recs := collect(t, c)
		if uint64(len(recs)) != tc.wantN {
			t.Fatalf("[%d,%d): got %d records, want %d", tc.from, tc.to, len(recs), tc.wantN)
		}
		if tc.wantN > 0 && recs[0].Seq != tc.wantFirst {
			t.Fatalf("[%d,%d): first seq %d, want %d", tc.from, tc.to, recs[0].Seq, tc.wantFirst)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq != recs[i-1].Seq+1 {
				t.Fatalf("seq gap at %d: %d -> %d", i, recs[i-1].Seq, recs[i].Seq)
			}
		}
	}
}

func TestReopenContinuesSeq(t *testing.T) {
	dir := t.TempDir()
	lg, err := Open(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := lg.Append(line(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	lg2, err := Open(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if got := lg2.NextSeq(); got != 101 {
		t.Fatalf("NextSeq after reopen = %d, want 101", got)
	}
	for i := 100; i < 200; i++ {
		if _, err := lg2.Append(line(i)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := lg2.Cursor(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(t, c)
	if len(recs) != 200 {
		t.Fatalf("got %d records after reopen+append, want 200", len(recs))
	}
	for i, r := range recs {
		if !bytes.Equal(r.Line, line(i)) {
			t.Fatalf("record %d: line %q, want %q", i, r.Line, line(i))
		}
	}
}

func TestSegmentRollKeepsSizeBound(t *testing.T) {
	const segBytes = 4 << 10
	dir := t.TempDir()
	lg, err := Open(dir, Options{SegmentBytes: segBytes, FlushBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := lg.Append(line(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 2 {
		t.Fatalf("expected roll to multiple segments, got %d", len(ents))
	}
	for _, e := range ents {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// A flush is at most FlushBytes + one record over; the roll check
		// runs before the write, so size stays within SegmentBytes plus
		// one flush worth of slack.
		if fi.Size() > segBytes+1024 {
			t.Fatalf("segment %s is %d bytes, roll threshold %d", e.Name(), fi.Size(), segBytes)
		}
	}
}

func TestInfo(t *testing.T) {
	lg, err := Open(t.TempDir(), Options{SegmentBytes: 2 << 10, FlushBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	const n = 120
	for i := 0; i < n; i++ {
		if _, err := lg.Append(line(i)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := lg.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != n || info.FirstSeq != 1 || info.NextSeq != n+1 {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Segments) != lg.Segments() {
		t.Fatalf("info lists %d segments, log has %d", len(info.Segments), lg.Segments())
	}
	var sum int
	for _, sg := range info.Segments {
		sum += sg.Records
	}
	if sum != n {
		t.Fatalf("segment record counts sum to %d, want %d", sum, n)
	}
}

func TestEmptyLog(t *testing.T) {
	lg, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	c, err := lg.Cursor(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if recs := collect(t, c); len(recs) != 0 {
		t.Fatalf("empty log yielded %d records", len(recs))
	}
	info, err := lg.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 || info.NextSeq != 1 {
		t.Fatalf("info = %+v", info)
	}
}

func TestClosedLogRejectsAppend(t *testing.T) {
	lg, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed log: %v, want ErrClosed", err)
	}
	if err := lg.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	lg, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if _, err := lg.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversized append accepted")
	}
	if _, err := lg.Append(line(0)); err != nil {
		t.Fatalf("append after rejected oversize: %v", err)
	}
}

func TestReadOnlyOpen(t *testing.T) {
	dir := t.TempDir()
	lg, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := lg.Append(line(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.Append(line(0)); err == nil {
		t.Fatal("read-only log accepted an append")
	}
	c, err := ro.Cursor(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if recs := collect(t, c); len(recs) != 10 {
		t.Fatalf("read-only cursor got %d records, want 10", len(recs))
	}
	if _, err := Open(filepath.Join(dir, "missing"), Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only open of a missing dir succeeded")
	}
}

// TestCursorAfterClose: Close documents that open cursors keep reading,
// and Cursor() explicitly supports closed logs — so a cursor created
// after Close must still see every flushed record, including the ones in
// the final segment (regression: Close used to zero the flushed-size
// snapshot, making post-Close cursors read the last segment as empty).
func TestCursorAfterClose(t *testing.T) {
	lg, err := Open(t.TempDir(), Options{SegmentBytes: 2 << 10, FlushBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := lg.Append(line(i)); err != nil {
			t.Fatal(err)
		}
	}
	if lg.Segments() < 2 {
		t.Fatalf("expected multiple segments, got %d", lg.Segments())
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := lg.Cursor(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(t, c)
	if len(recs) != n {
		t.Fatalf("cursor after Close got %d records, want %d", len(recs), n)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cursor after Close: %v", err)
	}
}

// TestAppendFlushReattachesRecoveredSegment: a crash between a roll's
// header write and its first record flush leaves a header-only segment;
// after reopen, the first group flush triggered from Append must re-open
// that segment for appending (regression: Append's inline flush used to
// create-with-O_EXCL and fail with "file exists").
func TestAppendFlushReattachesRecoveredSegment(t *testing.T) {
	dir := t.TempDir()
	var h [segHeaderSize]byte
	copy(h[0:4], segMagic)
	binary.LittleEndian.PutUint32(h[4:8], segVersion)
	binary.LittleEndian.PutUint64(h[8:16], 1)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), h[:], 0o644); err != nil {
		t.Fatal(err)
	}
	lg, err := Open(dir, Options{FlushBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if got := lg.NextSeq(); got != 1 {
		t.Fatalf("NextSeq after header-only recovery = %d, want 1", got)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := lg.Append(line(i)); err != nil {
			t.Fatalf("append %d after header-only recovery: %v", i, err)
		}
	}
	if got := lg.Segments(); got != 1 {
		t.Fatalf("log grew to %d segments, want the recovered one reused", got)
	}
	c, err := lg.Cursor(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if recs := collect(t, c); len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
}

// TestCursorPointInTime: records appended after a cursor is created are
// not visible through it.
func TestCursorPointInTime(t *testing.T) {
	lg, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	for i := 0; i < 50; i++ {
		if _, err := lg.Append(line(i)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := lg.Cursor(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 100; i++ {
		if _, err := lg.Append(line(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	if recs := collect(t, c); len(recs) != 50 {
		t.Fatalf("point-in-time cursor got %d records, want 50", len(recs))
	}
}

// NextSeq returns the seq the next appended record will carry.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// TruncatedBytes reports the torn-tail bytes Open dropped (or, for a
// read-only log, detected) during recovery.
func (l *Log) TruncatedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// Segments returns the number of segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}
