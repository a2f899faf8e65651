package relstore

import (
	"fmt"
	"sort"
	"time"
)

// Cond is an equality condition on one column. Select uses an index when
// the conditions exactly cover one; otherwise it scans. Either way the row's
// version chain decides what is visible: an index only nominates candidates,
// each resolved at the reader's epoch and re-checked (see gather).
type Cond struct {
	Column string
	Value  any
}

// Eq builds an equality condition.
func Eq(column string, value any) Cond { return Cond{Column: column, Value: value} }

// Query describes a select over one table: equality conditions (ANDed), an
// optional arbitrary predicate applied after them, and an ordering.
type Query struct {
	Table   string
	Conds   []Cond
	Where   func(Row) bool // optional, applied after Conds
	OrderBy string         // optional column; rows sort ascending by it
}

// Select returns copies of all rows matching the query, as of the newest
// published epoch vector. Rows come back in OrderBy order when set,
// otherwise in primary-key order — on the indexed, unique, and scan paths
// alike, across partitions — so results are deterministic either way.
func (s *Store) Select(q Query) ([]Row, error) {
	v, release := s.pinnedView(true)
	defer release()
	return v.sel(q)
}

// SelectOne returns the single matching row, nil when none match, and an
// error when more than one matches.
func (s *Store) SelectOne(q Query) (Row, error) {
	v, release := s.pinnedView(true)
	defer release()
	return v.selOne(q)
}

// Get returns a copy of the row with the given primary key, or nil when
// absent.
func (s *Store) Get(tableName string, id int64) (Row, error) {
	v, release := s.pinnedView(true)
	defer release()
	return v.get(tableName, id)
}

// sel evaluates a query against the view's epoch vector: each partition
// yields its candidates in primary-key order, the per-partition results
// merge into global primary-key order (ids are unique store-wide), and
// Where/OrderBy apply to the merged set — so a query behaves identically
// whatever the partition count.
func (v view) sel(q Query) ([]Row, error) {
	var t *table
	for _, pv := range v.parts {
		if tt, ok := pv.ts.byName[q.Table]; ok {
			t = tt
			break
		}
	}
	if t == nil {
		return nil, fmt.Errorf("relstore: no table %s", q.Table)
	}
	for _, c := range q.Conds {
		if _, ok := t.colType[c.Column]; !ok {
			return nil, fmt.Errorf("relstore: table %s has no column %s", q.Table, c.Column)
		}
	}
	if q.OrderBy != "" {
		if _, ok := t.colType[q.OrderBy]; !ok {
			return nil, fmt.Errorf("relstore: table %s has no column %s to order by", q.Table, q.OrderBy)
		}
	}

	var out []Row
	for _, pv := range v.parts {
		tt, ok := pv.ts.byName[q.Table]
		if !ok {
			continue
		}
		part, err := gather(tt, pv.epoch, q)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = part
		} else {
			out = append(out, part...)
		}
	}
	if len(v.parts) > 1 {
		sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	}
	if q.Where != nil {
		kept := out[:0]
		for _, row := range out {
			if q.Where(row) {
				kept = append(kept, row)
			}
		}
		out = kept
	}
	if v.clone {
		for i := range out {
			out[i] = out[i].Clone()
		}
	}
	if q.OrderBy != "" {
		col := q.OrderBy
		sort.SliceStable(out, func(i, j int) bool {
			return valueLess(out[i][col], out[j][col])
		})
	}
	return out, nil
}

// gather collects one partition's matching rows at one epoch, in
// primary-key order. Candidate rows come from an index bucket, a
// unique-constraint bucket, or a full scan; all three yield primary-key
// order. A bucket holds every row that ever had the key, so each candidate
// is resolved at the epoch and re-checked against the conditions — the one
// and only visibility filter an indexed read has.
func gather(t *table, epoch uint64, q Query) ([]Row, error) {
	var out []Row
	if len(q.Conds) > 0 {
		cols := make([]string, len(q.Conds))
		probe := Row{}
		for i, c := range q.Conds {
			cols[i] = c.Column
			cv, err := coerce(q.Table, c.Column, t.colType[c.Column], c.Value)
			if err != nil {
				return nil, err
			}
			probe[c.Column] = cv
		}
		if ix := t.indexCovering(cols); ix != nil {
			for _, id := range ix.candidates(probe, cols) {
				if row := lookupAt(t, id, epoch); row != nil && condsMatch(t, q.Table, q.Conds, row) {
					out = append(out, row)
				}
			}
			return out, nil
		}
	}
	t.rows.Range(func(_ int64, c *rowChain) bool {
		ver := c.visibleAt(epoch)
		if ver == nil {
			return true
		}
		if condsMatch(t, q.Table, q.Conds, ver.row) {
			out = append(out, ver.row)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out, nil
}

// lookupAt resolves an index candidate id to its row visible at epoch, or
// nil.
func lookupAt(t *table, id int64, epoch uint64) Row {
	c, ok := t.rows.Load(id)
	if !ok {
		return nil
	}
	ver := c.visibleAt(epoch)
	if ver == nil {
		return nil
	}
	return ver.row
}

func (v view) selOne(q Query) (Row, error) {
	rows, err := v.sel(q)
	if err != nil {
		return nil, err
	}
	switch len(rows) {
	case 0:
		return nil, nil
	case 1:
		return rows[0], nil
	default:
		return nil, fmt.Errorf("relstore: query on %s matched more than one row", q.Table)
	}
}

func condsMatch(t *table, tableName string, conds []Cond, row Row) bool {
	for _, c := range conds {
		cv, err := coerce(tableName, c.Column, t.colType[c.Column], c.Value)
		if err != nil {
			return false
		}
		if !valueEq(row[c.Column], cv) {
			return false
		}
	}
	return true
}

func valueEq(a, b any) bool {
	if ta, ok := a.(time.Time); ok {
		tb, ok := b.(time.Time)
		return ok && ta.Equal(tb)
	}
	return a == b
}

// valueLess orders values of the same type; nil sorts first.
func valueLess(a, b any) bool {
	if a == nil {
		return b != nil
	}
	if b == nil {
		return false
	}
	switch x := a.(type) {
	case int64:
		y, ok := b.(int64)
		return ok && x < y
	case float64:
		y, ok := b.(float64)
		return ok && x < y
	case string:
		y, ok := b.(string)
		return ok && x < y
	case bool:
		y, ok := b.(bool)
		return ok && !x && y
	case time.Time:
		y, ok := b.(time.Time)
		return ok && x.Before(y)
	}
	return false
}
