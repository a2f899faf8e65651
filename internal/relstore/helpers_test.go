package relstore

import (
	"fmt"
	"testing"
	"time"
)

// The store's mutation surface is Writer.NewRow + Insert and Writer.Edit +
// Update over typed column handles; these helpers let tests keep saying
// "insert this" and "update that row" with a row spelled by column name.
// vals is that spelling — and the reference model's row (model_test.go) —
// never a second representation inside the store.
type vals map[string]any

// fill sets every named column of d. A value goes through the setter of its
// column's type after the widening SQL drivers do (an int for an Int or
// Float column, an RFC 3339 string for a Time); any other mismatch goes
// through the setter of the value's own type, which refuses it. "id" is
// skipped: the table assigns it (mkRow sets it by hand).
func fill(d *Draft, lay *Layout, v vals) {
	for name, val := range v {
		if name == "id" {
			continue
		}
		c, err := lay.Col(name)
		if err != nil {
			if d.err == nil {
				d.err = err
			}
			return
		}
		switch x := val.(type) {
		case nil:
			d.SetNull(c)
		case int:
			setNumber(d, c, int64(x))
		case int64:
			setNumber(d, c, x)
		case float64:
			if c.Type() == Int && x == float64(int64(x)) {
				d.SetInt(c, int64(x))
			} else {
				d.SetFloat(c, x)
			}
		case string:
			if ts, err := time.Parse(time.RFC3339Nano, x); err == nil && c.Type() == Time {
				d.SetTime(c, ts)
			} else {
				d.SetStr(c, x)
			}
		case bool:
			d.SetBool(c, x)
		case time.Time:
			d.SetTime(c, x)
		default:
			panic("helpers_test: no setter for this value type")
		}
	}
}

func setNumber(d *Draft, c Col, x int64) {
	if c.Type() == Float {
		d.SetFloat(c, float64(x))
	} else {
		d.SetInt(c, x)
	}
}

// insW inserts row through writer w.
func insW(w Writer, table string, row vals) (int64, error) {
	lay := w.s.Layout(table)
	d := w.NewRow(lay)
	if lay != nil {
		fill(&d, lay, row)
	}
	return w.Insert(&d)
}

// insAt is insW on partition part.
func insAt(s *Store, part int, table string, row vals) (int64, error) {
	return insW(s.Writer(part), table, row)
}

// ins is insAt on partition 0, where single-partition tests live.
func ins(s *Store, table string, row vals) (int64, error) {
	return insAt(s, 0, table, row)
}

// updW rewrites the named columns of row id, which w's partition holds.
func updW(w Writer, table string, id int64, changes vals) error {
	lay := w.s.Layout(table)
	d := w.Edit(lay, id)
	if lay != nil {
		if _, named := changes["id"]; named {
			d.SetInt(lay.byName["id"], 0) // refused: the primary key is not a column to set
		}
		fill(&d, lay, changes)
	}
	return w.Update(&d)
}

// upd is updW through the writer of the partition that holds row id (rows
// never migrate, so a lock-free probe finds the owner); an id no partition
// holds goes to partition 0, which reports it missing.
func upd(s *Store, table string, id int64, changes vals) error {
	part := 0
	for i, p := range s.parts {
		if t, ok := p.tables.Load().byName[table]; ok {
			if _, ok := t.rows.Load(id); ok {
				part = i
			}
		}
	}
	return updW(s.Writer(part), table, id, changes)
}

// mkRow builds a detached row of table — never inserted, its id taken from
// v — for tests that encode rows directly.
func mkRow(t testing.TB, s *Store, table string, v vals) *Row {
	t.Helper()
	lay := s.Layout(table)
	d := s.Writer(0).NewRow(lay)
	fill(&d, lay, v)
	if d.err != nil {
		t.Fatalf("mkRow %s: %v", table, d.err)
	}
	d.row.id, _ = v["id"].(int64)
	return d.row
}

// get reads one column of a stored row by name, boxed as the map-based rows
// used to hold it: the column type's Go value, or nil for NULL.
func get(r *Row, name string) any {
	c, err := r.Layout().Col(name)
	if err != nil {
		panic(err)
	}
	if r.IsNull(c) {
		return nil
	}
	switch c.Type() {
	case Int:
		return r.Int(c)
	case Float:
		return r.Float(c)
	case Str:
		return r.Str(c)
	case Bool:
		return r.Bool(c)
	default:
		return r.Time(c)
	}
}

// Epoch reports the sum of the snapshot's pinned partition epochs — the
// same monotonic store version Store.Epoch reports.
func (sn *Snapshot) Epoch() uint64 {
	var sum uint64
	for _, pv := range sn.v.parts {
		sum += pv.epoch
	}
	return sum
}

// Epochs reports the pinned per-partition epoch vector.
func (sn *Snapshot) Epochs() []uint64 {
	out := make([]uint64, len(sn.v.parts))
	for i, pv := range sn.v.parts {
		out[i] = pv.epoch
	}
	return out
}

// Count returns the number of rows visible in the snapshot.
func (sn *Snapshot) Count(tableName string) (int, error) {
	total := 0
	found := false
	for _, pv := range sn.v.parts {
		t, ok := pv.ts.byName[tableName]
		if !ok {
			continue
		}
		found = true
		t.rows.Range(func(_ int64, c *rowChain) bool {
			if c.visibleAt(pv.epoch) != nil {
				total++
			}
			return true
		})
	}
	if !found {
		return 0, fmt.Errorf("relstore: no table %s", tableName)
	}
	return total, nil
}

// Epochs returns the current per-partition epoch vector. It is a
// convenience for diagnostics; unlike Snapshot it makes no atomicity
// claim across partitions.
func (s *Store) Epochs() []uint64 {
	out := make([]uint64, len(s.parts))
	for i, p := range s.parts {
		out[i] = p.epoch.Load()
	}
	return out
}

// Partition reports which partition this writer commits to.
func (w Writer) Partition() int { return w.p.idx }

// TableNames lists tables in creation order.
func (s *Store) TableNames() []string {
	return append([]string(nil), s.parts[0].tables.Load().order...)
}
