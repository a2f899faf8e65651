package relstore

import (
	"fmt"
	"math"
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

// Eq builds an equality condition. value is the column type's Go value
// (int64, float64, string, bool, time.Time; the other integer and float
// widths and an RFC 3339 string for a time are accepted too) or nil, which
// matches the rows where the column is NULL.
func Eq(column string, value any) Cond { return Cond{Column: column, Value: value} }

// slotCond is a Cond compiled against a table's layout, once per Select:
// the column's handle and the value as the slot holds it, so matching a row
// is a bitmap test and one comparison, however many rows are scanned.
type slotCond struct {
	col  Col
	null bool
	word uint64
	str  string
}

// compile resolves the condition's column and converts its value to the
// column's slot form. Numeric widening (int -> int64, int64 -> float64 for a
// Float column, an integral float64 for an Int column) is permitted;
// anything else is a type error, which fails the Select on the indexed and
// the scan path alike.
func (cd Cond) compile(lay *Layout) (slotCond, error) {
	col, err := lay.Col(cd.Column)
	if err != nil {
		return slotCond{}, err
	}
	sc := slotCond{col: col}
	if cd.Value == nil {
		sc.null = true
		return sc, nil
	}
	ok := false
	switch col.typ {
	case Int:
		var i int64
		switch v := cd.Value.(type) {
		case int64:
			i, ok = v, true
		case int:
			i, ok = int64(v), true
		case int32:
			i, ok = int64(v), true
		case float64:
			i, ok = int64(v), v == float64(int64(v))
		}
		sc.word = uint64(i)
	case Float:
		var f float64
		switch v := cd.Value.(type) {
		case float64:
			f, ok = v, true
		case float32:
			f, ok = float64(v), true
		case int64:
			f, ok = float64(v), true
		case int:
			f, ok = float64(v), true
		}
		sc.word = math.Float64bits(f)
	case Str:
		sc.str, ok = cd.Value.(string)
	case Bool:
		var b bool
		if b, ok = cd.Value.(bool); b {
			sc.word = 1
		}
	case Time:
		t, isTime := cd.Value.(time.Time)
		if str, isStr := cd.Value.(string); isStr {
			t, err = time.Parse(time.RFC3339Nano, str)
			isTime = err == nil
		}
		if isTime {
			// No stored row holds an instant outside the UnixNano range, so
			// asking for one is an error too.
			if sc.word, ok = timeWord(t); !ok {
				return sc, errTimeRange(col, t)
			}
		}
	}
	if !ok {
		return sc, fmt.Errorf("relstore: %s: value %v (%T) is not a %s", col.describe(), cd.Value, cd.Value, col.typ)
	}
	return sc, nil
}

// matches reports whether row holds the condition's value. Floats compare
// as numbers (0 equals -0, NaN equals nothing), everything else as slots.
func (sc *slotCond) matches(row *Row) bool {
	null, word, str := row.slotAt(sc.col)
	switch {
	case null || sc.null:
		return null == sc.null
	case sc.col.typ == Float:
		return math.Float64frombits(word) == math.Float64frombits(sc.word)
	}
	return word == sc.word && str == sc.str
}

// Query describes a select over one table: equality conditions (ANDed), an
// optional arbitrary predicate applied after them, and an ordering.
type Query struct {
	Table   string
	Conds   []Cond
	Where   func(*Row) bool // optional, applied after Conds
	OrderBy string          // optional column; rows sort ascending by it
}

// Select returns all rows matching the query, as of the newest published
// epoch vector — the stored, immutable versions, as a Snapshot returns
// them. Rows come back in OrderBy order when set,
// otherwise in primary-key order — on the indexed, unique, and scan paths
// alike, across partitions — so results are deterministic either way.
func (s *Store) Select(q Query) ([]*Row, error) {
	v, release := s.pinnedView()
	defer release()
	return v.sel(q)
}

// SelectOne returns the single matching row, nil when none match, and an
// error when more than one matches.
func (s *Store) SelectOne(q Query) (*Row, error) {
	v, release := s.pinnedView()
	defer release()
	return v.selOne(q)
}

// Get returns the row with the given primary key, or nil when absent.
func (s *Store) Get(tableName string, id int64) (*Row, error) {
	v, release := s.pinnedView()
	defer release()
	return v.get(tableName, id)
}

// sel evaluates a query against the view's epoch vector: each partition
// yields its candidates in primary-key order, the per-partition results
// merge into global primary-key order (ids are unique store-wide), and
// Where/OrderBy apply to the merged set — so a query behaves identically
// whatever the partition count.
func (v view) sel(q Query) ([]*Row, error) {
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
	conds := make([]slotCond, len(q.Conds))
	for i, c := range q.Conds {
		var err error
		if conds[i], err = c.compile(t.lay); err != nil {
			return nil, err
		}
	}
	var orderBy Col
	if q.OrderBy != "" {
		var ok bool
		if orderBy, ok = t.lay.byName[q.OrderBy]; !ok {
			return nil, fmt.Errorf("relstore: table %s has no column %s to order by", q.Table, q.OrderBy)
		}
	}

	var out []*Row
	for _, pv := range v.parts {
		tt, ok := pv.ts.byName[q.Table]
		if !ok {
			continue
		}
		if part := gather(tt, pv.epoch, conds); out == nil {
			out = part
		} else {
			out = append(out, part...)
		}
	}
	if len(v.parts) > 1 {
		sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
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
	if q.OrderBy != "" {
		sort.SliceStable(out, func(i, j int) bool { return slotLess(out[i], out[j], orderBy) })
	}
	return out, nil
}

// gather collects one partition's matching rows at one epoch, in
// primary-key order. Candidate rows come from an index bucket, a
// unique-constraint bucket, or a full scan; all three yield primary-key
// order. A bucket holds every row that ever had the key, so each candidate
// is resolved at the epoch and re-checked against the conditions — the one
// and only visibility filter an indexed read has.
func gather(t *table, epoch uint64, conds []slotCond) []*Row {
	var out []*Row
	if len(conds) > 0 {
		if ix := t.indexCovering(conds); ix != nil {
			for _, id := range ix.candidates(conds) {
				if c, ok := t.rows.Load(id); ok {
					if row := c.visibleAt(epoch); row != nil && condsMatch(conds, row) {
						out = append(out, row)
					}
				}
			}
			return out
		}
	}
	t.rows.Range(func(_ int64, c *rowChain) bool {
		if row := c.visibleAt(epoch); row != nil && condsMatch(conds, row) {
			out = append(out, row)
		}
		return true
	})
	return out
}

func (v view) selOne(q Query) (*Row, error) {
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

func condsMatch(conds []slotCond, row *Row) bool {
	for i := range conds {
		if !conds[i].matches(row) {
			return false
		}
	}
	return true
}

// slotLess orders two rows by column c; NULL sorts first, false before
// true.
func slotLess(a, b *Row, c Col) bool {
	an, aw, as := a.slotAt(c)
	bn, bw, bs := b.slotAt(c)
	switch {
	case an || bn:
		return an && !bn
	case c.typ == Str:
		return as < bs
	case c.typ == Float:
		return math.Float64frombits(aw) < math.Float64frombits(bw)
	case c.typ == Bool:
		return aw < bw
	}
	return int64(aw) < int64(bw) // Int, Time
}
