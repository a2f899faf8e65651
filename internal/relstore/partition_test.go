package relstore

import (
	"fmt"
	"sync"
	"testing"
)

// applyRoutedOps drives one deterministic op sequence into a store with
// any partition count, routing each logical row to partition key%N — the
// same modular routing the archive uses for workflows. The ids feed the
// update phase, so every store sees the identical logical history.
func applyRoutedOps(t *testing.T, s *Store, rows int) {
	t.Helper()
	for _, ts := range concurrencySchemas() {
		if err := s.CreateTable(ts); err != nil {
			t.Fatal(err)
		}
	}
	n := s.NumPartitions()
	parentIDs := make([]int64, rows)
	for i := 0; i < rows; i++ {
		w := s.Writer(i % n)
		id, err := insW(w, "parent", vals{"name": fmt.Sprintf("p%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		parentIDs[i] = id
	}
	for i := 0; i < rows; i++ {
		w := s.Writer(i % n)
		if _, err := insW(w, "child", vals{"parent_id": parentIDs[i], "n": int64(i * i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rows; i += 3 {
		w := s.Writer(i % n)
		if err := updW(w, "parent", parentIDs[i], vals{"name": fmt.Sprintf("p%d-renamed", i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHashIndependentOfPartitionCount is the acceptance property for the
// partitioned refactor: the same logical history applied to 1-, 4- and
// 16-partition stores materializes the same snapshot hash, because
// primary keys come from per-table allocators shared across partitions
// and Select merges partitions back into primary-key order.
func TestHashIndependentOfPartitionCount(t *testing.T) {
	hashes := map[int]string{}
	for _, parts := range []int{1, 4, 16} {
		s := NewStoreN(parts)
		applyRoutedOps(t, s, 200)
		sn := s.Snapshot()
		h, err := sn.Hash()
		sn.Close()
		if err != nil {
			t.Fatalf("%d partitions: %v", parts, err)
		}
		hashes[parts] = h
	}
	if hashes[1] != hashes[4] || hashes[4] != hashes[16] {
		t.Fatalf("snapshot hash depends on partition count:\n 1: %s\n 4: %s\n16: %s",
			hashes[1], hashes[4], hashes[16])
	}
}

// TestWriterPartitionPinning checks a Writer commits into exactly its
// partition: epochs move only there, and cross-partition reads still see
// every row through the merged view.
func TestWriterPartitionPinning(t *testing.T) {
	s := NewStoreN(4)
	if err := s.CreateTable(concurrencySchemas()[0]); err != nil {
		t.Fatal(err)
	}
	before := s.Epochs()
	w := s.Writer(2)
	if w.Partition() != 2 {
		t.Fatalf("Writer(2).Partition() = %d", w.Partition())
	}
	if _, err := insW(w, "parent", vals{"name": "pinned"}); err != nil {
		t.Fatal(err)
	}
	after := s.Epochs()
	for i := range after {
		want := before[i]
		if i == 2 {
			want++
		}
		if after[i] != want {
			t.Fatalf("partition %d epoch %d, want %d (vector %v -> %v)", i, after[i], want, before, after)
		}
	}
	rows, err := s.Select(Query{Table: "parent"})
	if err != nil || len(rows) != 1 {
		t.Fatalf("merged select saw %d rows, %v; want 1", len(rows), err)
	}
}

// TestReadersNeverLoseRowsToGCPerPartition is the per-partition version
// of TestReadersNeverLoseRowsToGC: every partition has its own writer
// constantly superseding one pinned row while readers snapshot across
// the whole vector. Run under -race this exercises each partition's
// epoch-pin registry and GC horizon independently.
func TestReadersNeverLoseRowsToGCPerPartition(t *testing.T) {
	const parts = 4
	s := NewStoreN(parts)
	if err := s.CreateTable(concurrencySchemas()[0]); err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, parts)
	for p := 0; p < parts; p++ {
		id, err := insAt(s, p, "parent", vals{"name": fmt.Sprintf("pinned%d", p)})
		if err != nil {
			t.Fatal(err)
		}
		ids[p] = id
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
				if err := updW(w, "parent", ids[p], vals{"name": fmt.Sprintf("p%d-v%d", p, i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	var rwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for k := 0; k < 300; k++ {
				sn := s.Snapshot()
				for p, id := range ids {
					if row, err := sn.Get("parent", id); err != nil || row == nil {
						t.Errorf("snapshot %v lost partition %d row %d: %v, %v", sn.Epochs(), p, id, row, err)
						sn.Close()
						return
					}
				}
				if rows, err := sn.Select(Query{Table: "parent"}); err != nil || len(rows) != parts {
					t.Errorf("snapshot Select = %d rows, %v, want %d", len(rows), err, parts)
					sn.Close()
					return
				}
				sn.Close()
			}
		}()
	}
	rwg.Wait()
	close(stop)
	wwg.Wait()
}
