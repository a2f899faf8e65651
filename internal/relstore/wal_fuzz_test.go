package relstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fig3Schemas are the archive's job_instance and jobstate tables (Fig. 3),
// the two the loader writes most, plus the test job table for its bool.
func fig3Schemas() []TableSchema {
	return []TableSchema{
		{
			Name: "job_instance",
			Columns: []Column{
				{Name: "job_id", Type: Int},
				{Name: "job_submit_seq", Type: Int},
				{Name: "host_id", Type: Int, Nullable: true},
				{Name: "site", Type: Str, Nullable: true},
				{Name: "user", Type: Str, Nullable: true},
				{Name: "subwf_uuid", Type: Str, Nullable: true},
				{Name: "stdout_file", Type: Str, Nullable: true},
				{Name: "stdout_text", Type: Str, Nullable: true},
				{Name: "stderr_file", Type: Str, Nullable: true},
				{Name: "stderr_text", Type: Str, Nullable: true},
				{Name: "multiplier_factor", Type: Int, Nullable: true},
				{Name: "exitcode", Type: Int, Nullable: true},
				{Name: "local_duration", Type: Float, Nullable: true},
			},
			Indexes: [][]string{{"job_id"}, {"host_id"}},
		},
		{
			Name: "jobstate",
			Columns: []Column{
				{Name: "job_instance_id", Type: Int},
				{Name: "state", Type: Str},
				{Name: "timestamp", Type: Time},
				{Name: "jobstate_submit_seq", Type: Int},
			},
			Indexes: [][]string{{"job_instance_id"}},
		},
		{Name: "job", Columns: jobSchema().Columns},
	}
}

func fig3Store(t testing.TB) *Store {
	t.Helper()
	s := NewStore()
	for _, sch := range fig3Schemas() {
		if err := s.CreateTable(sch); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// fig3Records is records of each op over those tables (s's, a fig3Store),
// between them carrying a null, a float, a bool and a time.
func fig3Records(t testing.TB, s *Store) []walRecord {
	ji := mkRow(t, s, "job_instance", vals{"id": int64(7), "job_id": int64(3), "job_submit_seq": int64(1), "host_id": int64(2),
		"site": "local", "user": nil, "subwf_uuid": nil, "stdout_file": "j3.out", "stdout_text": nil,
		"stderr_file": nil, "stderr_text": nil, "multiplier_factor": int64(1), "exitcode": int64(-1),
		"local_duration": 74.25})
	state := func(id int64, st string) *Row {
		return mkRow(t, s, "jobstate", vals{"id": id, "job_instance_id": int64(7), "state": st,
			"timestamp": time.Date(2012, 11, 10, 0, 1, 2, 3000, time.UTC), "jobstate_submit_seq": id})
	}
	sch := fig3Schemas()[1]
	return []walRecord{
		{op: opCreate, table: sch.Name, sch: &sch},
		{op: opInsert, table: "job_instance", rows: []*Row{ji}},
		{op: opInsert, table: "jobstate", rows: []*Row{state(1, "SUBMIT"), state(2, "EXECUTE")}},
		{op: opUpdate, table: "job_instance", row: ji},
		{op: opUpdate, table: "job", row: mkRow(t, s, "job", vals{"id": int64(4), "wf_id": int64(1), "exec_job_id": "j4", "runtime": nil, "done": true})},
	}
}

// deletePayload is the payload of the 'd' record the WAL grammar once
// reserved — | op 'd' | table | id | — built by hand, since no encoder for
// it exists (or was ever reachable from a binary).
func deletePayload(table string, id byte) []byte {
	return append(append([]byte{'d', byte(len(table))}, table...), id)
}

func encodePayload(t testing.TB, rec walRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.encode(&canonWriter{w: &buf, compact: true}); err != nil {
		t.Fatalf("encoding a %q record: %v", rec.op, err)
	}
	return buf.Bytes()
}

// FuzzWALRecord feeds arbitrary bytes to everything that decodes stored
// rows. As a WAL frame and as a frame payload they must never panic, never
// allocate out of proportion to the input (a hostile length or row count is
// checked against the bytes that remain before anything is made), and a
// payload that decodes must re-encode to bytes that decode and re-encode
// identically, then apply. With image set the bytes are a checkpoint image
// short of its SHA-256 footer, which the target appends so mutations reach
// the reader behind the verification: loadCheckpoint must not panic either.
// Both appliers are bounded as recovery bounds them, by the bytes in front
// of them, so a hostile row id is refused before it sizes the row map
// (testdata/fuzz/FuzzWALRecord/checkpoint-row-id-0x1000000001700 once
// asked for 4 TiB).
func FuzzWALRecord(f *testing.F) {
	seedStore := fig3Store(f)
	ts := seedStore.parts[0].tables.Load()
	recs := fig3Records(f, seedStore)
	for _, rec := range recs {
		f.Add(encodePayload(f, rec), false)
	}
	f.Add(deletePayload("jobstate", 2), false)
	f.Add([]byte{opInsert, 8, 'j', 'o', 'b', 's', 't', 'a', 't', 'e', 0xff, 0xff, 0xff, 0xff, 0x0f}, false)

	// One real image: the rows above, inserted and checkpointed.
	dir := f.TempDir()
	ck, err := OpenDir(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, sch := range fig3Schemas() {
		if err := ck.CreateTable(sch); err != nil {
			f.Fatal(err)
		}
	}
	for _, rec := range []walRecord{recs[1], recs[2], {table: "job", rows: []*Row{recs[4].row}}} {
		for _, row := range rec.rows {
			v := vals{}
			for _, c := range row.Layout().Columns() {
				v[c.Name()] = get(row, c.Name())
			}
			if _, err := ins(ck, rec.table, v); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := ck.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	img, err := os.ReadFile(ckptPath(filepath.Join(dir, partDirName(0)), ck.CheckpointStats()[0].Seq))
	if err != nil {
		f.Fatal(err)
	}
	ck.Close()
	f.Add(img[:len(img)-sha256.Size], true)

	f.Fuzz(func(t *testing.T, data []byte, image bool) {
		if image {
			sum := sha256.Sum256(data)
			path := filepath.Join(t.TempDir(), "fuzz.ck")
			if err := os.WriteFile(path, append(append([]byte(nil), data...), sum[:]...), 0o644); err != nil {
				t.Fatal(err)
			}
			s := NewStore()
			_, _ = s.parts[0].loadCheckpoint(s, path, int64(len(data)+sha256.Size))
			return
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _ = readFrame(data, 1)
		rec, err := decodeWALRecord(data, ts)
		runtime.ReadMemStats(&after)
		// A row is carved from its table's slabs — at worst one fresh chunk
		// of each, ~70 KiB for job_instance's 13 columns, whatever the input
		// says — and costs the input at least one byte per column.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(128<<10+256*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		e1 := encodePayload(t, rec)
		rec2, err := decodeWALRecord(e1, ts)
		if err != nil {
			t.Fatalf("re-encoded %q record does not decode: %v", rec.op, err)
		}
		if e2 := encodePayload(t, rec2); !bytes.Equal(e1, e2) {
			t.Fatalf("encode → decode → encode changed the bytes:\n%x\n%x", e1, e2)
		}
		s := fig3Store(t)
		_ = s.applyRecord(s.parts[0], rec, int64(len(data)))
	})
}

// TestRowIDBeyondStoreBytesRefused: a primary key no directory could hold —
// the fuzzer's 0x1000000001700 — is refused in a checkpoint image and in a
// WAL frame, by both openers, naming the file and the offset, instead of
// sizing a row map from it.
func TestRowIDBeyondStoreBytesRefused(t *testing.T) {
	const hostile = 0x1000000001700
	dir := t.TempDir()
	s := openDirStore(t, dir, 1)
	if err := s.CreateTable(concurrencySchemas()[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if i == 3 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ins(s, "parent", vals{"name": fmt.Sprintf("row%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	pdir := filepath.Join(dir, partDirName(0))
	ckpts, _ := listNumbered(pdir, "checkpoint-", ".ck")
	segs, _ := listNumbered(pdir, "wal-", ".log")
	if len(ckpts) != 1 || len(segs) != 1 {
		t.Fatalf("want one image and the one-frame segment after it, got %d and %d", len(ckpts), len(segs))
	}

	bothRefuse := func(t *testing.T, img, file string, off int) {
		t.Helper()
		_, lerr := LoadDir(img)
		_, oerr := OpenDir(img, Options{})
		for opener, err := range map[string]error{"LoadDir": lerr, "OpenDir": oerr} {
			if err == nil {
				t.Fatalf("%s accepted row id %#x", opener, hostile)
			}
			for _, want := range []string{file, fmt.Sprintf("offset %d", off), fmt.Sprint(int64(hostile))} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("%s error %q does not name %q", opener, err, want)
				}
			}
		}
		if !errors.Is(oerr, errRowID) {
			t.Fatalf("OpenDir error %v is not errRowID", oerr)
		}
	}
	image := func(t *testing.T, src string, edit func([]byte) []byte) (img, file string) {
		img = filepath.Join(t.TempDir(), "img")
		copyDir(t, dir, img)
		file = filepath.Join(img, partDirName(0), filepath.Base(src))
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, edit(b), 0o644); err != nil {
			t.Fatal(err)
		}
		return img, file
	}

	t.Run("checkpoint image", func(t *testing.T) {
		marker := append(binary.LittleEndian.AppendUint64(nil, 3), "row"...)
		var off int
		img, file := image(t, ckpts[0].path, func(b []byte) []byte {
			body := b[:len(b)-sha256.Size]
			off = bytes.Index(body, marker)
			binary.LittleEndian.PutUint64(body[off+len(marker):], hostile)
			sum := sha256.Sum256(body)
			return append(body, sum[:]...)
		})
		bothRefuse(t, img, file, off)
	})
	t.Run("WAL frame", func(t *testing.T) {
		img, file := image(t, segs[0].path, func(b []byte) []byte {
			row := mkRow(t, s, "parent", vals{"id": int64(hostile), "name": "row3"})
			payload := encodePayload(t, walRecord{op: opInsert, table: "parent", rows: []*Row{row}})
			frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
			frame = append(append(frame, b[4:walHeaderSize]...), payload...)
			return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, walCRC))
		})
		bothRefuse(t, img, file, 0)
	})
}
