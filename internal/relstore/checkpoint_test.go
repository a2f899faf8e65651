package relstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openDirStore opens a store directory with automatic checkpoints
// effectively off, so tests control checkpoint timing explicitly.
func openDirStore(t *testing.T, dir string, parts int) *Store {
	t.Helper()
	s, err := OpenDir(dir, Options{Partitions: parts, CheckpointEvery: 1 << 62})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func storeHash(t *testing.T, s *Store) string {
	t.Helper()
	sn := s.Snapshot()
	defer sn.Close()
	h, err := sn.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// copyDir snapshots a store directory byte for byte — the moral
// equivalent of a kill -9 plus a disk image, for crash tests.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpenDirPersistReopen round-trips a partitioned store through
// Close/OpenDir: the recovered state hashes identical to the live one,
// partition count comes from the MANIFEST (opts cannot change it), and
// writes continue cleanly after recovery.
func TestOpenDirPersistReopen(t *testing.T) {
	dir := t.TempDir()
	s := openDirStore(t, dir, 4)
	applyRoutedOps(t, s, 120)
	want := storeHash(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDir(dir, Options{Partitions: 9}) // MANIFEST wins
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.NumPartitions(); got != 4 {
		t.Fatalf("reopen partition count %d, want 4 from MANIFEST", got)
	}
	if got := storeHash(t, s2); got != want {
		t.Fatalf("recovered hash %s, want %s", got, want)
	}
	if _, err := insAt(s2, 3, "parent", vals{"name": "post-recovery"}); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestCheckpointTruncatesWAL checks the checkpoint protocol end to end:
// the image covers the WAL high-water, segments at or below it are
// deleted, recovery afterwards loads checkpoint + tail and hashes
// identical to the pre-checkpoint live state plus the tail writes.
func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s := openDirStore(t, dir, 2)
	applyRoutedOps(t, s, 80)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stats := s.CheckpointStats()
	for i, cs := range stats {
		if !cs.Taken || cs.Seq == 0 || cs.Bytes == 0 {
			t.Fatalf("partition %d checkpoint not taken: %+v", i, cs)
		}
		pdir := filepath.Join(dir, partDirName(i))
		segs, err := listNumbered(pdir, "wal-", ".log")
		if err != nil {
			t.Fatal(err)
		}
		for _, sg := range segs {
			if sg.start <= cs.Seq {
				t.Fatalf("partition %d: segment %s not truncated behind checkpoint seq %d", i, sg.path, cs.Seq)
			}
		}
		if _, err := os.Stat(ckptPath(pdir, cs.Seq)); err != nil {
			t.Fatalf("partition %d: checkpoint image missing: %v", i, err)
		}
	}

	// Tail writes past the checkpoint land in fresh segments.
	for i := 0; i < 20; i++ {
		w := s.Writer(i % 2)
		if _, err := insW(w, "parent", vals{"name": fmt.Sprintf("tail%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := storeHash(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Partitions != 2 {
		t.Fatalf("InspectDir partitions %d, want 2", info.Partitions)
	}
	var tail uint64
	for _, pi := range info.Parts {
		if pi.CheckpointSeq == 0 {
			t.Fatalf("partition %d: InspectDir sees no checkpoint: %+v", pi.Partition, pi)
		}
		if pi.LastSeq < pi.CheckpointSeq {
			t.Fatalf("partition %d: LastSeq %d below checkpoint %d", pi.Partition, pi.LastSeq, pi.CheckpointSeq)
		}
		tail += pi.TailRecords
	}
	if tail != 20 {
		t.Fatalf("InspectDir tail records %d, want 20", tail)
	}

	s2 := openDirStore(t, dir, 2)
	defer s2.Close()
	if got := storeHash(t, s2); got != want {
		t.Fatalf("checkpoint+tail recovery hash %s, want %s", got, want)
	}
}

// TestAutoCheckpointTriggers checks the background trigger: once a
// partition absorbs CheckpointEvery WAL records, a checkpoint appears
// without any explicit call.
func TestAutoCheckpointTriggers(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, Options{Partitions: 2, CheckpointEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CreateTable(concurrencySchemas()[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := insAt(s, i%2, "parent", vals{"name": fmt.Sprintf("auto%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		taken := 0
		for _, cs := range s.CheckpointStats() {
			if cs.Taken {
				taken++
			}
		}
		if taken == 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no automatic checkpoint after 64 records with CheckpointEvery=16: %+v", s.CheckpointStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecoveryFallsBackPastInvalidCheckpoint plants a garbage image newer
// than the real one: recovery must reject it on footer verification,
// fall back to the valid image, and still replay the WAL tail — ending
// bit-identical to the pre-crash state.
func TestRecoveryFallsBackPastInvalidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openDirStore(t, dir, 1)
	applyRoutedOps(t, s, 60)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	realSeq := s.CheckpointStats()[0].Seq
	for i := 0; i < 15; i++ {
		if _, err := ins(s, "parent", vals{"name": fmt.Sprintf("tail%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := storeHash(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	pdir := filepath.Join(dir, partDirName(0))
	bogus := ckptPath(pdir, realSeq+5)
	if err := os.WriteFile(bogus, []byte("this is not a checkpoint image and fails sha256 verification"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openDirStore(t, dir, 1)
	defer s2.Close()
	if got := storeHash(t, s2); got != want {
		t.Fatalf("fallback recovery hash %s, want %s", got, want)
	}
	if s2.CheckpointStats()[0].Seq != realSeq {
		t.Fatalf("recovered from seq %d, want fallback to %d", s2.CheckpointStats()[0].Seq, realSeq)
	}
}

// frameEnds hops the frame headers of a WAL segment image whose first
// record is seq start and returns the end offset of every frame.
func frameEnds(t *testing.T, seg []byte, start uint64) []int {
	t.Helper()
	var ends []int
	for off := 0; off < len(seg); {
		_, size, err := readFrame(seg[off:], start+uint64(len(ends)))
		if err != nil {
			t.Fatalf("frame %d at offset %d: %v", len(ends), off, err)
		}
		off += size
		ends = append(ends, off)
	}
	return ends
}

// TestCrashMatrixTornWALTail is the byte-level crash matrix: the newest
// WAL segment is cut at every byte offset of its final frame and at a
// sweep of offsets around every other frame boundary, bare or followed by
// bytes a crash can leave behind the last good frame, and the final frame
// is damaged in place. Every mutilation must recover to exactly the
// intact-frame prefix — the state an in-memory store reaches after the
// same prefix of inserts. LoadDir must reach it without touching a byte;
// the OpenDir that follows truncates to the frame boundary and appends;
// double recovery of the same crash image must agree, and the reopen
// after the truncating recovery sees the appended record.
func TestCrashMatrixTornWALTail(t *testing.T) {
	// Single partition, one insert per record: WAL record k is insert k,
	// so a prefix of records maps to a prefix of inserts.
	const inserts = 30
	dir := t.TempDir()
	s := openDirStore(t, dir, 1)
	if err := s.CreateTable(concurrencySchemas()[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inserts; i++ {
		if _, err := ins(s, "parent", vals{"name": fmt.Sprintf("row%04d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Expected hash for every prefix, from in-memory replays of the same
	// logical history. wantHash[k] = state after k inserts. The create
	// record is part of the WAL too: prefixes that cut into it recover an
	// empty store with no tables; those are skipped below.
	wantHash := make([]string, inserts+2)
	for k := 0; k <= inserts+1; k++ {
		m := NewStore()
		if err := m.CreateTable(concurrencySchemas()[0]); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if _, err := ins(m, "parent", vals{"name": fmt.Sprintf("row%04d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		wantHash[k] = storeHash(t, m)
	}

	pdir := filepath.Join(dir, partDirName(0))
	segs, err := listNumbered(pdir, "wal-", ".log")
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one WAL segment, got %d (%v)", len(segs), err)
	}
	whole, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Frame 0 is the create record, frames 1..inserts the insert records.
	ends := frameEnds(t, whole, 1)
	if len(ends) != inserts+1 {
		t.Fatalf("WAL has %d records, want %d", len(ends), inserts+1)
	}
	type crash struct {
		name   string
		seg    []byte
		frames int // whole frames ahead of the damage
	}
	var crashes []crash
	cutAt := func(cut int, tail []byte) {
		frames := 0
		for _, e := range ends {
			if e <= cut {
				frames++
			}
		}
		crashes = append(crashes, crash{
			name:   fmt.Sprintf("cut%d+%d", cut, len(tail)),
			seg:    append(append([]byte(nil), whole[:cut]...), tail...),
			frames: frames,
		})
	}
	// Every byte offset of the final frame, the clean boundary before it
	// included.
	for cut := ends[inserts-1]; cut < len(whole); cut++ {
		cutAt(cut, nil)
	}
	// Around every earlier boundary: on it, one past it, mid-frame. On a
	// boundary also what may follow the last good frame: fewer bytes than a
	// frame, and a block whose length field claims more than the file.
	for i, e := range ends[:inserts] {
		cutAt(e, nil)
		cutAt(e+1, nil)
		cutAt(e+(ends[i+1]-e)/2, nil)
		cutAt(e, []byte{0xff, 0xff, 0xff})
		cutAt(e, bytes.Repeat([]byte{0xff}, 20))
	}
	// The final frame complete but damaged in place: payload, seq, checksum.
	last := ends[inserts-1]
	for _, off := range []int{last + 4, last + walHeaderSize + 2, len(whole) - 1} {
		mut := append([]byte(nil), whole...)
		mut[off] ^= 0x40
		crashes = append(crashes, crash{name: fmt.Sprintf("flip%d", off), seg: mut, frames: inserts})
	}

	for _, c := range crashes {
		img := filepath.Join(t.TempDir(), "img")
		copyDir(t, dir, img)
		seg := filepath.Join(img, partDirName(0), filepath.Base(segs[0].path))
		if err := os.WriteFile(seg, c.seg, 0o644); err != nil {
			t.Fatal(err)
		}
		img2 := filepath.Join(t.TempDir(), "img2")
		copyDir(t, img, img2)

		k := c.frames - 1 // minus the create record
		boundary := ends[k]

		before := dirImage(t, img)
		if got := loadDirHash(t, img); got != wantHash[k] {
			t.Fatalf("%s: LoadDir hash != in-memory prefix of %d inserts", c.name, k)
		}
		requireUntouched(t, img, before)

		r1 := openDirStore(t, img, 1)
		got := storeHash(t, r1)
		if got != wantHash[k] {
			t.Fatalf("%s: recovered hash != in-memory prefix of %d inserts", c.name, k)
		}
		if st, err := os.Stat(seg); err != nil || st.Size() != int64(boundary) {
			t.Fatalf("%s: OpenDir left the segment at %d bytes, want the frame boundary %d (%v)", c.name, st.Size(), boundary, err)
		}
		// The truncating recovery must leave a segment that appends and
		// reopens cleanly: the next insert is insert k of the history.
		if _, err := ins(r1, "parent", vals{"name": fmt.Sprintf("row%04d", k)}); err != nil {
			t.Fatalf("%s: append after recovery: %v", c.name, err)
		}
		if err := r1.Close(); err != nil {
			t.Fatal(err)
		}
		r1b := openDirStore(t, img, 1)
		if rh := storeHash(t, r1b); rh != wantHash[k+1] {
			t.Fatalf("%s: reopen after the appended record diverged from %d inserts", c.name, k+1)
		}
		r1b.Close()

		r2 := openDirStore(t, img2, 1)
		if h2 := storeHash(t, r2); h2 != got {
			t.Fatalf("%s: double recovery diverged: %s vs %s", c.name, got, h2)
		}
		r2.Close()
	}
}

// TestKillDuringParallelGroupCommit images the store directory while
// four partitions are group-committing fsynced batches in parallel —
// the closest a test gets to kill -9 mid-commit without forking. Every
// image must recover (possibly truncating a torn tail), recover the
// same way twice, and contain only whole per-partition record prefixes.
func TestKillDuringParallelGroupCommit(t *testing.T) {
	const parts = 4
	dir := t.TempDir()
	s := openDirStore(t, dir, parts)
	if err := s.CreateTable(concurrencySchemas()[0]); err != nil {
		t.Fatal(err)
	}
	s.SetSync(true)
	// One durable row per partition before imaging starts, so every crash
	// image holds at least the schema and a first record per partition.
	for p := 0; p < parts; p++ {
		if _, err := insAt(s, p, "parent", vals{"name": fmt.Sprintf("seed%d", p)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wwg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wwg.Add(1)
		go func(p int) {
			defer wwg.Done()
			w := s.Writer(p)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := insW(w, "parent", vals{"name": fmt.Sprintf("p%d-%d", p, i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}

	images := make([]string, 3)
	for i := range images {
		time.Sleep(20 * time.Millisecond)
		images[i] = filepath.Join(t.TempDir(), fmt.Sprintf("img%d", i))
		copyDir(t, dir, images[i])
	}
	close(stop)
	wwg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for i, img := range images {
		img2 := filepath.Join(t.TempDir(), "again")
		copyDir(t, img, img2)
		r1 := openDirStore(t, img, parts)
		h1 := storeHash(t, r1)
		n, err := r1.Count("parent")
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		if cn := len(mustSelect(t, r1, "parent")); cn != n {
			t.Fatalf("image %d: Count %d != Select %d", i, n, cn)
		}
		r1.Close()
		r2 := openDirStore(t, img2, parts)
		if h2 := storeHash(t, r2); h2 != h1 {
			t.Fatalf("image %d: double recovery diverged", i)
		}
		r2.Close()
	}
}

func mustSelect(t *testing.T, s *Store, table string) []*Row {
	t.Helper()
	rows, err := s.Select(Query{Table: table})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestLoadDirAgainstLiveWriter races read-only loads against a writer that
// inserts, updates, flushes and auto-checkpoints every 64 records on four
// partitions — so loads keep running into rotated segments, superseded
// images and half-flushed tails. A load may lose that race three times in
// a row and say so; one that succeeds must be a consistent prefix of every
// partition: each child's parent (same partition, earlier record) is
// present, no table holds more rows than the writer ever wrote, and the
// writer's directory recovers afterwards as if it had never been read.
func TestLoadDirAgainstLiveWriter(t *testing.T) {
	const parts = 4
	const perPart = 400
	dir := t.TempDir()
	s, err := OpenDir(dir, Options{Partitions: parts, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range concurrencySchemas() {
		if err := s.CreateTable(ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	var wwg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wwg.Add(1)
		go func(p int) {
			defer wwg.Done()
			w := s.Writer(p)
			for i := 0; i < perPart; i++ {
				id, err := insW(w, "parent", vals{"name": fmt.Sprintf("p%d-%d", p, i)})
				if err == nil {
					_, err = insW(w, "child", vals{"parent_id": id, "n": int64(i)})
				}
				if err == nil && i%5 == 0 {
					err = updW(w, "parent", id, vals{"name": fmt.Sprintf("p%d-%d-renamed", p, i)})
				}
				if err == nil && i%8 == 0 {
					err = s.Flush()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	writersDone := make(chan struct{})
	go func() { wwg.Wait(); close(writersDone) }()

	var loads, lostRaces atomic.Int64
	var rwg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-writersDone:
					return
				default:
				}
				ro, err := LoadDir(dir)
				if errors.Is(err, errDirChanged) {
					lostRaces.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("LoadDir against a live writer: %v", err)
					return
				}
				loads.Add(1)
				for _, c := range mustSelect(t, ro, "child") {
					if parent, _ := ro.Get("parent", get(c, "parent_id").(int64)); parent == nil {
						t.Errorf("loaded child %d without its parent %d", c.ID(), get(c, "parent_id"))
						return
					}
				}
				for _, table := range []string{"parent", "child"} {
					if n, _ := ro.Count(table); n > parts*perPart {
						t.Errorf("loaded %d %s rows, the writer only ever writes %d", n, table, parts*perPart)
					}
				}
			}
		}()
	}
	rwg.Wait()
	<-writersDone
	t.Logf("%d loads succeeded, %d lost the race with a checkpoint three times over", loads.Load(), lostRaces.Load())
	if loads.Load() == 0 {
		t.Fatal("no load ever succeeded against the live writer")
	}

	want := storeHash(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := loadDirHash(t, dir); got != want {
		t.Fatalf("LoadDir of the quiescent directory hashed %s, want the writer's %s", got, want)
	}
	re := openDirStore(t, dir, parts)
	defer re.Close()
	if got := storeHash(t, re); got != want {
		t.Fatalf("OpenDir after the readers hashed %s, want the writer's %s", got, want)
	}
}
