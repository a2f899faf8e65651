package relstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// Model-based test: a random sequence of inserts, updates (of a plain
// column, and of a unique-key column) and lookups runs against both the
// store and a plain-map reference model; any divergence is a bug. The store
// is a one-partition directory that checkpoints itself every few hundred
// records, so the final round trips (a read-only load and a writable
// reopen) check that checkpoint image + WAL tail restore the same contents.
// The generator then runs on against the reopened store, which checks that
// recovery restores the same constraint verdicts too: an image rebuilds
// index entries for current keys only, replayed updates re-create stale
// ones, and neither may change what a duplicate insert, a rename or an
// indexed lookup answers.

type modelRow struct {
	name string
	wf   int64
	run  float64
}

func TestStoreAgainstModel(t *testing.T) {
	const (
		ops  = 4000 // then 1000 more after recovery
		wfs  = 5
		seed = 99
	)
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	s, err := OpenDir(dir, Options{CheckpointEvery: 300})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(TableSchema{
		Name: "m",
		Columns: []Column{
			{Name: "name", Type: Str},
			{Name: "wf", Type: Int},
			{Name: "run", Type: Float, Nullable: true},
		},
		Indexes: [][]string{{"wf"}, {"wf", "name"}},
	}); err != nil {
		t.Fatal(err)
	}

	model := map[int64]modelRow{} // id -> row
	byKey := map[string]int64{}   // wf/name -> id
	key := func(wf int64, name string) string { return fmt.Sprintf("%d/%s", wf, name) }

	// run drives n steps of the generator against s and the model; op
	// numbers continue across calls so a failure names one step of the run.
	op := 0
	run := func(s *Store, n int) {
		for end := op + n; op < end; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // insert
				r := modelRow{
					name: fmt.Sprintf("job%03d", rng.Intn(200)),
					wf:   int64(rng.Intn(wfs)),
					run:  float64(rng.Intn(100)),
				}
				if _, dup := byKey[key(r.wf, r.name)]; dup {
					continue // the caller decides identity; relstore keeps no unique keys
				}
				id, err := ins(s, "m", vals{"name": r.name, "wf": r.wf, "run": r.run})
				if err != nil {
					t.Fatalf("op %d: insert: %v", op, err)
				}
				model[id] = r
				byKey[key(r.wf, r.name)] = id
			case 4, 5: // update run of a random live row
				id := randomID(rng, model)
				if id == 0 {
					continue
				}
				newRun := float64(rng.Intn(1000))
				if err := upd(s, "m", id, vals{"run": newRun}); err != nil {
					t.Fatalf("op %d: update: %v", op, err)
				}
				r := model[id]
				r.run = newRun
				model[id] = r
			case 6: // rename a random live row onto a (wf, name) no other row holds
				id := randomID(rng, model)
				if id == 0 {
					continue
				}
				r := model[id]
				name := fmt.Sprintf("job%03d", rng.Intn(200))
				if other, taken := byKey[key(r.wf, name)]; taken && other != id {
					continue
				}
				if err := upd(s, "m", id, vals{"name": name}); err != nil {
					t.Fatalf("op %d: rename: %v", op, err)
				}
				delete(byKey, key(r.wf, r.name))
				r.name = name
				model[id] = r
				byKey[key(r.wf, name)] = id
			case 7: // point lookup by pk
				id := randomID(rng, model)
				if id == 0 {
					continue
				}
				row, err := s.Get("m", id)
				if err != nil || row == nil {
					t.Fatalf("op %d: get %d: %v %v", op, id, row, err)
				}
				want := model[id]
				if get(row, "name") != want.name || get(row, "wf") != want.wf || get(row, "run") != want.run {
					t.Fatalf("op %d: row %d = %v, want %+v", op, id, row, want)
				}
			case 8: // indexed query by wf
				wf := int64(rng.Intn(wfs))
				rows, err := s.Select(Query{Table: "m", Conds: []Cond{Eq("wf", wf)}})
				if err != nil {
					t.Fatalf("op %d: select: %v", op, err)
				}
				wantCount := 0
				for _, r := range model {
					if r.wf == wf {
						wantCount++
					}
				}
				if len(rows) != wantCount {
					t.Fatalf("op %d: wf=%d rows=%d want=%d", op, wf, len(rows), wantCount)
				}
			case 9: // lookup by (wf, name), which the model keeps unique
				id := randomID(rng, model)
				if id == 0 {
					continue
				}
				r := model[id]
				row, err := s.SelectOne(Query{Table: "m", Conds: []Cond{Eq("wf", r.wf), Eq("name", r.name)}})
				if err != nil || row == nil || row.ID() != id {
					t.Fatalf("op %d: (wf, name) lookup: %v %v", op, row, err)
				}
			}
		}
	}
	run(s, ops)

	// Full-state comparison.
	verify := func(st *Store, label string) {
		n, err := st.Count("m")
		if err != nil || n != len(model) {
			t.Fatalf("%s: count %d, want %d (%v)", label, n, len(model), err)
		}
		for id, want := range model {
			row, err := st.Get("m", id)
			if err != nil || row == nil {
				t.Fatalf("%s: lost row %d", label, id)
			}
			if get(row, "name") != want.name || get(row, "wf") != want.wf || get(row, "run") != want.run {
				t.Fatalf("%s: row %d = %v, want %+v", label, id, row, want)
			}
		}
	}
	verify(s, "live store")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !s.CheckpointStats()[0].Taken {
		t.Fatal("no automatic checkpoint ran; the round trip below would only test the WAL")
	}
	ro, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	verify(ro, "loaded store")
	re, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	verify(re, "reopened store")
	run(re, 1000)
	verify(re, "reopened store after 1000 more ops")
}

func randomID(rng *rand.Rand, model map[int64]modelRow) int64 {
	if len(model) == 0 {
		return 0
	}
	n := rng.Intn(len(model))
	for id := range model {
		if n == 0 {
			return id
		}
		n--
	}
	return 0
}
