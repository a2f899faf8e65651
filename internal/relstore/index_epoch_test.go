package relstore

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestIndexedEqualsScanAtEveryEpoch pins the one contract every index
// layout must keep: at every epoch a reader can hold, an equality Select
// answered through an index (or the unique-key probe) returns exactly the
// rows, in the same order, that a full scan with the same predicate
// returns. Rows move between keys (NULL → v, v → w, back to v), unique keys
// are vacated and re-taken, and up to six snapshots stay open across those
// moves, so an index that forgets a key a row used to hold, or shows one it
// holds only later, fails here.
func TestIndexedEqualsScanAtEveryEpoch(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		indexedEqualsScanRun(t, seed)
	}
}

var (
	epochNs  = []any{nil, int64(0), int64(1), int64(2), int64(3)} // single-Int index
	epochSs  = []any{nil, "a", "b", "c"}                          // string index
	epochGs  = []any{int64(0), int64(1)}                          // composite index (g, h)
	epochHs  = []any{nil, "x", "y"}
	epochU1s = []any{int64(0), int64(1), int64(2)} // composite unique key (u1, u2)
	epochU2s = []any{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9"}
)

func indexedEqualsScanRun(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pick := func(vals []any) any { return vals[rng.Intn(len(vals))] }
	s := NewStore()
	if err := s.CreateTable(TableSchema{
		Name: "e",
		Columns: []Column{
			{Name: "n", Type: Int, Nullable: true},
			{Name: "s", Type: Str, Nullable: true},
			{Name: "g", Type: Int},
			{Name: "h", Type: Str, Nullable: true},
			{Name: "u1", Type: Int},
			{Name: "u2", Type: Str},
		},
		Unique:  [][]string{{"u1", "u2"}},
		Indexes: [][]string{{"n"}, {"s"}, {"g", "h"}},
	}); err != nil {
		t.Fatal(err)
	}

	type holder struct {
		u1, u2 any
	}
	var (
		ids   []int64              // live rows, insertion order
		keyOf = map[int64]holder{} // id -> the unique key it holds
		owner = map[holder]int64{} // unique key -> the row holding it
		prev  = map[int64]vals{}   // id -> the indexed values it held before its last move
		snaps []*Snapshot
	)
	defer func() {
		for _, sn := range snaps {
			sn.Close()
		}
	}()

	// same fails unless the indexed and the scanned result hold the same
	// rows (the same stored version of each) in the same order.
	same := func(step int, where string, r Reader, conds []Cond, pred func(*Row) bool) {
		t.Helper()
		indexed, err := r.Select(Query{Table: "e", Conds: conds})
		if err != nil {
			t.Fatalf("seed %d step %d %s %v: indexed: %v", seed, step, where, conds, err)
		}
		scanned, err := r.Select(Query{Table: "e", Where: pred})
		if err != nil {
			t.Fatalf("seed %d step %d %s %v: scan: %v", seed, step, where, conds, err)
		}
		if len(indexed) != len(scanned) {
			t.Fatalf("seed %d step %d %s %v: index returned %d rows, scan %d\nindex: %v\nscan:  %v",
				seed, step, where, conds, len(indexed), len(scanned), indexed, scanned)
		}
		for i := range indexed {
			if indexed[i] != scanned[i] {
				t.Fatalf("seed %d step %d %s %v: row %d differs\nindex: %v\nscan:  %v",
					seed, step, where, conds, i, indexed[i], scanned[i])
			}
		}
	}
	check := func(step int) {
		t.Helper()
		views := []Reader{s}
		names := []string{"live"}
		for i, sn := range snaps {
			views = append(views, sn)
			names = append(names, fmt.Sprintf("snapshot %d (epoch %d)", i, sn.Epoch()))
		}
		for vi, r := range views {
			for _, n := range epochNs {
				n := n
				same(step, names[vi], r, []Cond{Eq("n", n)}, func(row *Row) bool { return get(row, "n") == n })
			}
			for _, sv := range epochSs {
				sv := sv
				same(step, names[vi], r, []Cond{Eq("s", sv)}, func(row *Row) bool { return get(row, "s") == sv })
			}
			for _, g := range epochGs {
				for _, h := range epochHs {
					g, h := g, h
					same(step, names[vi], r, []Cond{Eq("g", g), Eq("h", h)},
						func(row *Row) bool { return get(row, "g") == g && get(row, "h") == h })
				}
			}
			for _, u1 := range epochU1s {
				for _, u2 := range epochU2s {
					u1, u2 := u1, u2
					same(step, names[vi], r, []Cond{Eq("u1", u1), Eq("u2", u2)},
						func(row *Row) bool { return get(row, "u1") == u1 && get(row, "u2") == u2 })
				}
			}
		}
	}

	for step := 1; step <= 300; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // insert; a key some live row holds must be refused
			k := holder{pick(epochU1s), pick(epochU2s)}
			row := vals{"n": pick(epochNs), "s": pick(epochSs), "g": pick(epochGs), "h": pick(epochHs), "u1": k.u1, "u2": k.u2}
			id, err := ins(s, "e", row)
			if holderID, taken := owner[k]; taken {
				var ue *UniqueError
				if !errors.As(err, &ue) || ue.ExistingID != holderID {
					t.Fatalf("seed %d step %d: duplicate insert of %v: err = %v, want UniqueError naming row %d", seed, step, k, err, holderID)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d step %d: insert: %v", seed, step, err)
			}
			ids = append(ids, id)
			keyOf[id], owner[k] = k, id
		case op < 7: // move a row between index keys, half the time straight back
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			cur, err := s.Get("e", id)
			if err != nil || cur == nil {
				t.Fatalf("seed %d step %d: get %d: %v, %v", seed, step, id, cur, err)
			}
			var changes vals
			if back, moved := prev[id]; moved && rng.Intn(2) == 0 {
				changes = back
			} else {
				changes = vals{}
				for _, col := range [][]any{{"n", epochNs}, {"s", epochSs}, {"g", epochGs}, {"h", epochHs}} {
					if rng.Intn(2) == 0 {
						changes[col[0].(string)] = pick(col[1].([]any))
					}
				}
			}
			held := vals{}
			for col := range changes {
				held[col] = get(cur, col)
			}
			if err := upd(s, "e", id, changes); err != nil {
				t.Fatalf("seed %d step %d: move %d %v: %v", seed, step, id, changes, err)
			}
			prev[id] = held
		case op < 9: // rename across the unique key
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			k := holder{pick(epochU1s), pick(epochU2s)}
			err := upd(s, "e", id, vals{"u1": k.u1, "u2": k.u2})
			if holderID, taken := owner[k]; taken && holderID != id {
				var ue *UniqueError
				if !errors.As(err, &ue) || ue.ExistingID != holderID {
					t.Fatalf("seed %d step %d: rename of %d onto live key %v: err = %v, want UniqueError naming row %d", seed, step, id, k, err, holderID)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d step %d: rename of %d onto free key %v: %v", seed, step, id, k, err)
			}
			delete(owner, keyOf[id])
			keyOf[id], owner[k] = k, id
		default: // open a snapshot, or close a random one
			if len(snaps) < 6 && (len(snaps) == 0 || rng.Intn(2) == 0) {
				snaps = append(snaps, s.Snapshot())
			} else {
				i := rng.Intn(len(snaps))
				snaps[i].Close()
				snaps = append(snaps[:i], snaps[i+1:]...)
			}
		}
		if step%10 == 0 {
			check(step)
		}
	}
}
