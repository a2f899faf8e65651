package relstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// loadDirHash loads dir read-only and hashes the result.
func loadDirHash(t *testing.T, dir string) string {
	t.Helper()
	s, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return storeHash(t, s)
}

// dirImage reads every file under dir: relative name → contents.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	img := make(map[string]string)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		img[rel] = string(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// requireUntouched fails unless dir holds exactly the files of before, byte
// for byte.
func requireUntouched(t *testing.T, dir string, before map[string]string) {
	t.Helper()
	after := dirImage(t, dir)
	for name, want := range before {
		got, ok := after[name]
		if !ok {
			t.Fatalf("LoadDir removed %s", name)
		}
		if got != want {
			t.Fatalf("LoadDir changed %s: %d bytes, was %d", name, len(got), len(want))
		}
	}
	for name := range after {
		if _, ok := before[name]; !ok {
			t.Fatalf("LoadDir created %s", name)
		}
	}
}

// TestOpenPersistReopen round-trips every record kind through a
// one-partition directory: creates, inserts and updates (one of them moving
// a unique key) come back from the WAL with types, indexes, constraints and
// the id sequence intact, and a read-only LoadDir of the quiescent directory hashes the
// same as the writable OpenDir.
func TestOpenPersistReopen(t *testing.T) {
	dir := t.TempDir()
	s := openDirStore(t, dir, 1)
	if err := s.CreateTable(wfSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(jobSchema()); err != nil {
		t.Fatal(err)
	}
	wf, err := ins(s, "workflow", vals{"wf_uuid": "u1", "dax_label": "dart", "ts": now})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 10)
	for i := range ids {
		if ids[i], err = ins(s, "job", vals{"wf_id": wf, "exec_job_id": fmt.Sprintf("j%d", i), "runtime": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := upd(s, "job", ids[3], vals{"runtime": 74.0, "done": true}); err != nil {
		t.Fatal(err)
	}
	if err := upd(s, "job", ids[7], vals{"exec_job_id": "j7-renamed"}); err != nil {
		t.Fatal(err)
	}
	want := storeHash(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if got := loadDirHash(t, dir); got != want {
		t.Fatalf("LoadDir hash %s, want the live store's %s", got, want)
	}
	re := openDirStore(t, dir, 1)
	defer re.Close()
	if got := storeHash(t, re); got != want {
		t.Fatalf("OpenDir hash %s, want the live store's %s", got, want)
	}
	if n, _ := re.Count("job"); n != 10 {
		t.Fatalf("job count after reopen = %d, want 10", n)
	}
	row, err := re.Get("job", ids[3])
	if err != nil || row == nil {
		t.Fatalf("Get after reopen: %v, %v", row, err)
	}
	if get(row, "runtime") != 74.0 || get(row, "done") != true {
		t.Fatalf("update lost: %v", row)
	}
	if old, _ := re.SelectOne(Query{Table: "job", Conds: []Cond{Eq("wf_id", wf), Eq("exec_job_id", "j7")}}); old != nil {
		t.Fatalf("row still found under the key it was renamed away from: %v", old)
	}
	if _, err := ins(re, "job", vals{"wf_id": wf, "exec_job_id": "j7"}); err != nil {
		t.Fatalf("unique slot not freed by the replayed rename: %v", err)
	}
	wfRow, _ := re.Get("workflow", wf)
	if ts := get(wfRow, "ts").(time.Time); !ts.Equal(now) {
		t.Fatalf("time corrupted across reopen: %v", ts)
	}
	// Indexes rebuilt: indexed select and unique enforcement both work.
	rows, err := re.Select(Query{Table: "job", Conds: []Cond{Eq("wf_id", wf)}})
	if err != nil || len(rows) != 11 {
		t.Fatalf("indexed select after reopen: %d rows, %v", len(rows), err)
	}
	if _, err := ins(re, "workflow", vals{"wf_uuid": "u1", "ts": now}); err == nil {
		t.Fatal("unique constraint not rebuilt")
	}
	// New inserts continue the id sequence rather than reusing ids.
	nid, err := ins(re, "job", vals{"wf_id": wf, "exec_job_id": "new"})
	if err != nil {
		t.Fatal(err)
	}
	if nid <= ids[len(ids)-1] {
		t.Fatalf("id sequence reset: new id %d", nid)
	}
}

// TestOpenTornFinalLine: a crash mid-write leaves a torn final record.
// LoadDir stops its replay there and leaves every file byte-identical;
// the OpenDir that follows truncates the tail, recovers the same state and
// appends cleanly.
func TestOpenTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	s := openDirStore(t, dir, 2)
	applyRoutedOps(t, s, 40)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := insAt(s, i%2, "parent", vals{"name": fmt.Sprintf("tail%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := storeHash(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	pdir := filepath.Join(dir, partDirName(1))
	segs, err := listNumbered(pdir, "wal-", ".log")
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL tail to tear: %v", err)
	}
	torn := segs[len(segs)-1]
	clean, err := os.ReadFile(torn.path)
	if err != nil {
		t.Fatal(err)
	}
	// The next record, half written: the last frame again under the next
	// seq, cut in the middle of its payload.
	ends := frameEnds(t, clean, torn.start)
	half := append([]byte(nil), clean[ends[len(ends)-2]:]...)
	binary.LittleEndian.PutUint64(half[4:], torn.start+uint64(len(ends)))
	if err := os.WriteFile(torn.path, append(append([]byte(nil), clean...), half[:len(half)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	// A checkpoint write interrupted by the same crash.
	if err := os.WriteFile(filepath.Join(pdir, "checkpoint-00000000000000009999.ck.tmp"), []byte("half an image"), 0o644); err != nil {
		t.Fatal(err)
	}

	before := dirImage(t, dir)
	if got := loadDirHash(t, dir); got != want {
		t.Fatalf("LoadDir over a torn tail hashed %s, want %s", got, want)
	}
	requireUntouched(t, dir, before)

	re := openDirStore(t, dir, 2)
	defer re.Close()
	if got := storeHash(t, re); got != want {
		t.Fatalf("OpenDir over a torn tail hashed %s, want %s", got, want)
	}
	if b, _ := os.ReadFile(torn.path); !bytes.Equal(b, clean) {
		t.Fatalf("OpenDir left the torn record in the WAL: %d bytes, want the %d before the tear", len(b), len(clean))
	}
	if tmps, _ := filepath.Glob(filepath.Join(pdir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("OpenDir left stale temp images: %v", tmps)
	}
	if _, err := insAt(re, 1, "parent", vals{"name": "post-recovery"}); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestOpenCorruptionMidFileRejected: damage with intact records after it
// is corruption, not a torn tail; neither opener may quietly drop what
// follows it. Every byte of a non-final frame's seq, payload and checksum
// is flipped in turn, and both openers must name the segment and the
// frame's offset. (The length field is left alone: a damaged length can
// claim the rest of the file, which no reader can tell from a torn tail —
// the checksum it would fail is somewhere past the end.) A segment missing
// from the middle of a chain, or standing in another's place, breaks the
// record numbering and is refused the same way.
func TestOpenCorruptionMidFileRejected(t *testing.T) {
	dir := t.TempDir()
	s := openDirStore(t, dir, 1)
	if err := s.CreateTable(concurrencySchemas()[0]); err != nil {
		t.Fatal(err)
	}
	rows := 0
	insert := func(n int) {
		for i := 0; i < n; i++ {
			rows++
			if _, err := ins(s, "parent", vals{"name": fmt.Sprintf("row%d", rows)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Three segments of three, four and five records: rotate is what a
	// checkpoint uses to cut the WAL, without the cleanup that follows it.
	insert(2)
	for _, n := range []int{4, 5} {
		if _, err := s.parts[0].wal.Load().rotate(); err != nil {
			t.Fatal(err)
		}
		insert(n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	pdir := filepath.Join(dir, partDirName(0))
	segs, err := listNumbered(pdir, "wal-", ".log")
	if err != nil || len(segs) != 3 {
		t.Fatalf("want three WAL segments, got %d (%v)", len(segs), err)
	}

	bothRefuse := func(t *testing.T, img string, wants ...string) {
		t.Helper()
		_, lerr := LoadDir(img)
		_, oerr := OpenDir(img, Options{})
		for opener, err := range map[string]error{"LoadDir": lerr, "OpenDir": oerr} {
			if err == nil {
				t.Fatalf("%s accepted the damaged directory", opener)
			}
			for _, want := range wants {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("%s error %q does not name %q", opener, err, want)
				}
			}
		}
	}
	image := func(t *testing.T) (img string, seg func(i int) string) {
		img = filepath.Join(t.TempDir(), "img")
		copyDir(t, dir, img)
		return img, func(i int) string { return filepath.Join(img, partDirName(0), filepath.Base(segs[i].path)) }
	}

	t.Run("flipped byte", func(t *testing.T) {
		newest, err := os.ReadFile(segs[2].path)
		if err != nil {
			t.Fatal(err)
		}
		ends := frameEnds(t, newest, segs[2].start)
		start, end := ends[1], ends[2] // the third of five frames
		for off := start + 4; off < end; off++ {
			img, seg := image(t)
			mut := append([]byte(nil), newest...)
			mut[off] ^= 0x01
			if err := os.WriteFile(seg(2), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			bothRefuse(t, img, seg(2), fmt.Sprintf("offset %d", start))
		}
	})
	t.Run("damaged final frame of an older segment", func(t *testing.T) {
		img, seg := image(t)
		b, err := os.ReadFile(seg(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg(1), b[:len(b)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		bothRefuse(t, img, seg(1), "offset")
	})
	t.Run("middle segment deleted", func(t *testing.T) {
		img, seg := image(t)
		if err := os.Remove(seg(1)); err != nil {
			t.Fatal(err)
		}
		bothRefuse(t, img, "WAL gap")
	})
	t.Run("middle segment replaced by the newest", func(t *testing.T) {
		img, seg := image(t)
		b, err := os.ReadFile(seg(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg(1), b, 0o644); err != nil {
			t.Fatal(err)
		}
		bothRefuse(t, img, seg(1), "offset 0", "seq")
	})
}

// TestOpenRejectsForeignPaths: the openers refuse what they cannot read —
// a MANIFEST from another layout version, a regular file where the store
// directory should be (the retired one-file layout), a directory that is
// not a store — instead of guessing.
func TestOpenRejectsForeignPaths(t *testing.T) {
	manifest := func(body string) func(*testing.T) string {
		return func(t *testing.T) string {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}
	}
	cases := []struct {
		name     string
		path     func(*testing.T) string
		wantErr  string // "" = both openers accept
		openOnly bool   // OpenDir creates what is missing; only LoadDir rejects
	}{
		{name: "version 0", path: manifest(`{"partitions":2}`), wantErr: "MANIFEST version 0"},
		{name: "version 1", path: manifest(`{"version":1,"partitions":2}`),
			wantErr: "version 1 stores JSON WAL records, which this build no longer reads (version 2 frames them in binary); rebuild the directory from its event log with stampede-replay -out"},
		{name: "version 2", path: func(t *testing.T) string {
			dir := t.TempDir()
			openDirStore(t, dir, 2).Close()
			if b, _ := os.ReadFile(filepath.Join(dir, "MANIFEST")); !strings.Contains(string(b), `"version":2`) {
				t.Fatalf("a fresh directory's MANIFEST is %q, want version 2", b)
			}
			return dir
		}},
		{name: "version 3", path: manifest(`{"version":3,"partitions":2}`), wantErr: "MANIFEST version 3"},
		{name: "no partitions", path: manifest(`{"version":2,"partitions":0}`), wantErr: "bad MANIFEST"},
		{name: "not json", path: manifest(`partitions: 4`), wantErr: "bad MANIFEST"},
		{name: "regular file", path: func(t *testing.T) string {
			p := filepath.Join(t.TempDir(), "stampede.db")
			if err := os.WriteFile(p, []byte(`{"op":"create"}`+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			return p
		}, wantErr: "stampede-replay -out"},
		{name: "empty directory", path: func(t *testing.T) string { return t.TempDir() },
			wantErr: "not a store directory", openOnly: true},
		{name: "missing directory", path: func(t *testing.T) string { return filepath.Join(t.TempDir(), "absent") },
			wantErr: "not a store directory", openOnly: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.path(t)
			before := dirImage(t, filepath.Dir(path))
			ro, err := LoadDir(path)
			if tc.wantErr == "" {
				if err != nil || ro.NumPartitions() != 2 {
					t.Fatalf("LoadDir of a version-2 directory: %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("LoadDir error %v, want one naming %q", err, tc.wantErr)
			}
			requireUntouched(t, filepath.Dir(path), before)
			s, err := OpenDir(path, Options{})
			if tc.openOnly || tc.wantErr == "" {
				if err != nil {
					t.Fatalf("OpenDir should open a store here: %v", err)
				}
				s.Close()
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("OpenDir error %v, want one naming %q", err, tc.wantErr)
			}
		})
	}
}

// TestFlushMakesDataVisibleToReaderProcess: once the writer has flushed,
// a read-only load of the same directory sees the data — how the
// dashboard reads a database the loader is still writing.
func TestFlushMakesDataVisibleToReaderProcess(t *testing.T) {
	dir := t.TempDir()
	s := openDirStore(t, dir, 1)
	defer s.Close()
	_ = s.CreateTable(wfSchema())
	_, _ = ins(s, "workflow", vals{"wf_uuid": "u1", "ts": now})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := re.Count("workflow"); n != 1 {
		t.Fatalf("reader sees %d rows, want 1", n)
	}
	// The writer is unaffected by having been read.
	if _, err := ins(s, "workflow", vals{"wf_uuid": "u2", "ts": now}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := loadDirHash(t, dir), storeHash(t, s); got != want {
		t.Fatalf("second load hashed %s, want the writer's %s", got, want)
	}
}

func TestInMemoryFlushCloseNoops(t *testing.T) {
	s := NewStore()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALAppendAllocatesNothing pins the point of the binary codec: on a
// warmed writer, framing an insert or a full-row update —
// nulls, floats, bools and times included — touches the heap not at all.
func TestWALAppendAllocatesNothing(t *testing.T) {
	s, err := OpenDir(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, sch := range fig3Schemas() {
		if err := s.CreateTable(sch); err != nil {
			t.Fatal(err)
		}
	}
	w := s.parts[0].wal.Load()
	ts := s.parts[0].tables.Load()
	recs := fig3Records(t, s)
	ji, states, job := recs[1], recs[2], recs[4]
	for name, log := range map[string]func() error{
		"logInsert":      func() error { return w.logInsert(ts.byName[states.table], states.rows) },
		"logUpdate":      func() error { return w.logUpdate(ts.byName[ji.table], ji.rows[0]) },
		"logUpdate/bool": func() error { return w.logUpdate(ts.byName[job.table], job.row) },
	} {
		if err := log(); err != nil { // warm the frame scratch
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if err := log(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs per record, want 0", name, n)
		}
	}
}

// BenchmarkWALAppend times the WAL's append fast path alone — row encode,
// frame, CRC32C, buffered write; no fsync — over the two records the loader
// writes most: a one-row jobstate insert and a full-row job_instance
// update. BenchmarkEventlogAppend is its counterpart for the other durable
// log.
func BenchmarkWALAppend(b *testing.B) {
	s, err := OpenDir(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for _, sch := range fig3Schemas() {
		if err := s.CreateTable(sch); err != nil {
			b.Fatal(err)
		}
	}
	w := s.parts[0].wal.Load()
	ts := s.parts[0].tables.Load()
	recs := fig3Records(b, s)
	jobstate, state := ts.byName["jobstate"], recs[2].rows[:1]
	jobInstance, ji := ts.byName["job_instance"], recs[1].rows[0]
	segment := func() int64 {
		if err := w.flush(); err != nil {
			b.Fatal(err)
		}
		st, err := os.Stat(walPath(w.dir, w.fileStart))
		if err != nil {
			b.Fatal(err)
		}
		return st.Size()
	}
	size0 := segment()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if i%2 == 0 {
			err = w.logInsert(jobstate, state)
		} else {
			err = w.logUpdate(jobInstance, ji)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(segment()-size0)/float64(b.N), "bytes/record")
}
