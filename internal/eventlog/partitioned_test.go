package eventlog

import (
	"path/filepath"
	"testing"

	"repro/internal/archive"
	"repro/internal/relstore"
)

// rebuildIntoHash replays [1, upTo) into arch and returns the snapshot
// hash, closing the archive.
func rebuildIntoHash(t *testing.T, lg *Log, upTo uint64, arch *archive.Archive) string {
	t.Helper()
	if _, err := RebuildInto(lg, upTo, arch); err != nil {
		t.Fatalf("rebuild upTo %d: %v", upTo, err)
	}
	defer arch.Close()
	sn := arch.Snapshot()
	defer sn.Close()
	h, err := sn.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestRebuildHashIndependentOfPartitionCount replays the same log prefix
// into 1-, 4- and 16-partition stores and requires identical snapshot
// hashes: partitioning must be invisible to the materialized state, not
// just to the query API. This is what lets a partitioned live store be
// audited against a single-partition rebuild.
func TestRebuildHashIndependentOfPartitionCount(t *testing.T) {
	lg := buildPropertyLog(t, t.TempDir())
	defer lg.Close()
	last := lg.NextSeq() - 1

	for _, upTo := range []uint64{last / 2, 0} {
		want := rebuildHash(t, lg, upTo) // archive.NewInMemory: 1 partition
		for _, parts := range []int{4, 16} {
			got := rebuildIntoHash(t, lg, upTo, archive.NewInMemoryN(parts))
			if got != want {
				t.Fatalf("upTo %d: %d-partition rebuild hash %s, want %s (1 partition)",
					upTo, parts, got, want)
			}
		}
	}
}

// TestDurablePartitionedRecoveryMatchesRebuild is the crash matrix at
// the system level: the log prefix [1, K) is materialized into a durable
// 4-partition store with checkpoints every 64 records per partition
// (several fire mid-load), the store is closed and recovered from
// checkpoint + WAL tail, and the recovered hash must equal a fresh
// in-memory Rebuild of the same prefix — recovery is bit-identical to
// replaying history, at every probe point.
func TestDurablePartitionedRecoveryMatchesRebuild(t *testing.T) {
	lg := buildPropertyLog(t, t.TempDir())
	defer lg.Close()
	last := lg.NextSeq() - 1

	for _, upTo := range []uint64{last / 3, last / 2, 0} {
		dir := filepath.Join(t.TempDir(), "store")
		arch, err := archive.OpenDir(dir, relstore.Options{Partitions: 4, CheckpointEvery: 64})
		if err != nil {
			t.Fatal(err)
		}
		live := rebuildIntoHash(t, lg, upTo, arch) // closes arch

		want := rebuildHash(t, lg, upTo)
		if live != want {
			t.Fatalf("upTo %d: durable partitioned load hash %s != in-memory rebuild %s", upTo, live, want)
		}

		reopened, err := archive.OpenDir(dir, relstore.Options{})
		if err != nil {
			t.Fatalf("upTo %d: recovery: %v", upTo, err)
		}
		info, err := relstore.InspectDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if info.Partitions != 4 {
			t.Fatalf("upTo %d: recovered partition map has %d partitions, want 4", upTo, info.Partitions)
		}
		ckpts := 0
		for _, pi := range info.Parts {
			if pi.CheckpointSeq > 0 {
				ckpts++
			}
		}
		if upTo == 0 && ckpts == 0 {
			t.Fatalf("full load took no checkpoints despite CheckpointEvery=64: %+v", info.Parts)
		}
		sn := reopened.Snapshot()
		got, err := sn.Hash()
		ierr := archive.CheckIntegrity(sn)
		sn.Close()
		reopened.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("upTo %d: checkpoint+WAL-tail recovery hash %s, want %s", upTo, got, want)
		}
		if ierr != nil {
			t.Fatalf("upTo %d: recovered store: %v", upTo, ierr)
		}
	}
}
