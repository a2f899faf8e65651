package relstore

import (
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
// one-partition directory: inserts, a batch, an update and a delete come
// back from the WAL with types, indexes, constraints and the id sequence
// intact, and a read-only LoadDir of the quiescent directory hashes the
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
	wf, err := s.Insert("workflow", Row{"wf_uuid": "u1", "dax_label": "dart", "ts": now})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Row, 10)
	for i := range jobs {
		jobs[i] = Row{"wf_id": wf, "exec_job_id": fmt.Sprintf("j%d", i), "runtime": float64(i)}
	}
	ids, err := s.InsertBatch("job", jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update("job", ids[3], Row{"runtime": 74.0, "done": true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("job", ids[7]); err != nil {
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
	if n, _ := re.Count("job"); n != 9 {
		t.Fatalf("job count after reopen = %d, want 9", n)
	}
	row, err := re.Get("job", ids[3])
	if err != nil || row == nil {
		t.Fatalf("Get after reopen: %v, %v", row, err)
	}
	if row["runtime"] != 74.0 || row["done"] != true {
		t.Fatalf("update lost: %v", row)
	}
	if gone, _ := re.Get("job", ids[7]); gone != nil {
		t.Fatal("deleted row resurrected")
	}
	wfRow, _ := re.Get("workflow", wf)
	if ts := wfRow["ts"].(time.Time); !ts.Equal(now) {
		t.Fatalf("time corrupted across reopen: %v", ts)
	}
	// Indexes rebuilt: indexed select and unique enforcement both work.
	rows, err := re.Select(Query{Table: "job", Conds: []Cond{Eq("wf_id", wf)}})
	if err != nil || len(rows) != 9 {
		t.Fatalf("indexed select after reopen: %d rows, %v", len(rows), err)
	}
	if _, err := re.Insert("workflow", Row{"wf_uuid": "u1", "ts": now}); err == nil {
		t.Fatal("unique constraint not rebuilt")
	}
	// New inserts continue the id sequence rather than reusing ids.
	nid, err := re.Insert("job", Row{"wf_id": wf, "exec_job_id": "new"})
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
		if _, err := s.Writer(i%2).Insert("parent", Row{"name": fmt.Sprintf("tail%d", i)}); err != nil {
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
	torn := segs[len(segs)-1].path
	f, err := os.OpenFile(torn, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"insert","table":"parent","rows":[{"na`); err != nil {
		t.Fatal(err)
	}
	f.Close()
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
	if b, _ := os.ReadFile(torn); strings.Contains(string(b), `{"na`) {
		t.Fatal("OpenDir left the torn record in the WAL")
	}
	if tmps, _ := filepath.Glob(filepath.Join(pdir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("OpenDir left stale temp images: %v", tmps)
	}
	if _, err := re.Writer(1).Insert("parent", Row{"name": "post-recovery"}); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestOpenCorruptionMidFileRejected: a malformed record with intact
// records after it is corruption, not a torn tail; neither opener may
// quietly drop what follows it.
func TestOpenCorruptionMidFileRejected(t *testing.T) {
	dir := t.TempDir()
	s := openDirStore(t, dir, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	content := `{"op":"create","table":"w","schema":{"Name":"w","Columns":[{"Name":"a","Type":0,"Nullable":true}]}}
THIS IS NOT JSON
{"op":"insert","table":"w","rows":[{"id":1,"a":5}]}
`
	if err := os.WriteFile(walPath(filepath.Join(dir, partDirName(0)), 1), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("LoadDir accepted mid-file corruption")
	}
	if _, err := OpenDir(dir, Options{}); err == nil {
		t.Fatal("OpenDir accepted mid-file corruption")
	}
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
		wantErr  string
		openOnly bool // OpenDir creates what is missing; only LoadDir rejects
	}{
		{name: "version 0", path: manifest(`{"partitions":2}`), wantErr: "MANIFEST version 0"},
		{name: "version 2", path: manifest(`{"version":2,"partitions":2}`), wantErr: "MANIFEST version 2"},
		{name: "no partitions", path: manifest(`{"version":1,"partitions":0}`), wantErr: "bad MANIFEST"},
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
			_, err := LoadDir(path)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("LoadDir error %v, want one naming %q", err, tc.wantErr)
			}
			requireUntouched(t, filepath.Dir(path), before)
			s, err := OpenDir(path, Options{})
			if tc.openOnly {
				if err != nil {
					t.Fatalf("OpenDir should create a store here: %v", err)
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
	_, _ = s.Insert("workflow", Row{"wf_uuid": "u1", "ts": now})
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
	if _, err := s.Insert("workflow", Row{"wf_uuid": "u2", "ts": now}); err != nil {
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
