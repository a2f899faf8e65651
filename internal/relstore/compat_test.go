package relstore

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parentStoreHash is the Snapshot.Hash() the commit before the write API
// was narrowed (699f417) recorded for the store it wrote into
// testdata/parent-store: two partitions, fig3Schemas' three tables, per
// partition six job_instance rows each inserted, given three jobstate rows
// and updated, six job rows, then one update that moves an indexed key and
// (partition 1) a unique one. Partition 0 was checkpointed half way, so it
// is an image plus a WAL tail; partition 1 is WAL from record 1.
const parentStoreHash = "80397be776df4cac242754bd9d445ea7308b35600ad3ae9d05a12cf3e690c424"

// TestParentWALRecovers: narrowing the write API changed no byte of the
// records that survive it. The directory the parent commit wrote — create,
// insert and update frames and one checkpoint image — loads read-only and
// opens writable to the hash the parent recorded, and takes new writes.
func TestParentWALRecovers(t *testing.T) {
	src := filepath.Join("testdata", "parent-store")
	before := dirImage(t, src)
	if got := loadDirHash(t, src); got != parentStoreHash {
		t.Fatalf("LoadDir hash %s, want the parent's %s", got, parentStoreHash)
	}
	requireUntouched(t, src, before)

	dir := filepath.Join(t.TempDir(), "store")
	copyDir(t, src, dir)
	s, err := OpenDir(dir, Options{Partitions: 7}) // the MANIFEST's 2 wins
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumPartitions() != 2 {
		t.Fatalf("%d partitions, want the MANIFEST's 2", s.NumPartitions())
	}
	if !s.CheckpointStats()[0].Taken || s.CheckpointStats()[1].Taken {
		t.Fatalf("checkpoints recovered: %+v, want partition 0's only", s.CheckpointStats())
	}
	if got := storeHash(t, s); got != parentStoreHash {
		t.Fatalf("OpenDir hash %s, want the parent's %s", got, parentStoreHash)
	}
	// The recovered indexes answer for the keys the last updates moved.
	rows, err := s.Select(Query{Table: "job_instance", Conds: []Cond{Eq("host_id", int64(7))}})
	if err != nil || len(rows) != 2 || rows[0].ID() != 1 || rows[1].ID() != 4 {
		t.Fatalf("host_id=7 after recovery: %v, %v; want rows 1 and 4", rows, err)
	}
	if _, err := insW(s.Writer(1), "job_instance", vals{"job_id": int64(110), "job_submit_seq": int64(1)}); err != nil {
		t.Fatalf("the unique key row 4 was updated away from is not free: %v", err)
	}
	if err := updW(s.Writer(0), "job_instance", 1, vals{"exitcode": int64(9)}); err != nil {
		t.Fatal(err)
	}
}

// appendFrame appends payload to the WAL segment at path as record seq,
// framed as the writer frames it.
func appendFrame(t *testing.T, path string, seq uint64, payload []byte) (offset int64) {
	t.Helper()
	frame := make([]byte, walHeaderSize, walFrameOverhead+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint64(frame[4:], seq)
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, walCRC))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestDeleteRecordRefused: the 'd' record the WAL grammar once reserved is
// an unknown op now. A well-framed one — right seq, right checksum, so it is
// not a torn tail — fails both openers, naming the segment and the offset,
// and LoadDir leaves the directory as it found it.
func TestDeleteRecordRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	copyDir(t, filepath.Join("testdata", "parent-store"), dir)
	seg := walPath(filepath.Join(dir, partDirName(1)), 1)
	info, err := InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	off := appendFrame(t, seg, info.Parts[1].LastSeq+1, deletePayload("jobstate", 2))
	want := []string{seg, "record at offset " + strconv.FormatInt(off, 10), `unknown WAL op 'd'`}
	before := dirImage(t, dir)
	for name, open := range map[string]func() (*Store, error){
		"LoadDir": func() (*Store, error) { return LoadDir(dir) },
		"OpenDir": func() (*Store, error) { return OpenDir(dir, Options{}) },
	} {
		s, err := open()
		if err == nil {
			s.Close()
			t.Fatalf("%s accepted a delete record", name)
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s error %q does not name %q", name, err, w)
			}
		}
		if name == "LoadDir" {
			requireUntouched(t, dir, before)
		}
	}
}

// TestOpenDirPartitionBound: a new directory takes 1..maxPartitions
// partitions (0 meaning 1). archive.Route folds every workflow into
// maxPartitions slots first, so more could never be written to; the error
// names the count and the bound, nothing is created, and an existing
// directory opens whatever the option says.
func TestOpenDirPartitionBound(t *testing.T) {
	for _, n := range []int{-1, maxPartitions + 1, 128} {
		dir := filepath.Join(t.TempDir(), "store")
		s, err := OpenDir(dir, Options{Partitions: n})
		if err == nil {
			s.Close()
			t.Fatalf("OpenDir created a store with %d partitions", n)
		}
		if want := strconv.Itoa(n) + " partitions for new store directory " + dir + ": the count must be between 1 and 64"; !strings.Contains(err.Error(), want) {
			t.Fatalf("Partitions %d: error %q, want one saying %q", n, err, want)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("Partitions %d: the refused open left %s behind (%v)", n, dir, err)
		}
	}
	dir := filepath.Join(t.TempDir(), "store")
	s, err := OpenDir(dir, Options{Partitions: maxPartitions})
	if err != nil {
		t.Fatalf("%d partitions refused: %v", maxPartitions, err)
	}
	if s.NumPartitions() != maxPartitions {
		t.Fatalf("%d partitions, want %d", s.NumPartitions(), maxPartitions)
	}
	s.Close()
	s, err = OpenDir(dir, Options{Partitions: 128})
	if err != nil {
		t.Fatalf("reopening an existing directory with an out-of-range option: %v", err)
	}
	defer s.Close()
	if s.NumPartitions() != maxPartitions {
		t.Fatalf("reopened with %d partitions, want the MANIFEST's %d", s.NumPartitions(), maxPartitions)
	}
}
