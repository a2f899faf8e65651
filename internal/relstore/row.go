package relstore

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// maxColumns is how many columns a table may declare: one bit each in a
// row's NULL bitmap.
const maxColumns = 64

// Layout is a TableSchema compiled, once, to fixed positions: every column
// has an ordinal (its place in the schema and its bit in the NULL bitmap)
// and a slot — an 8-byte word for an Int, a Float (its IEEE bits), a Bool
// (0 or 1) or a Time (UnixNano, the word the canonical encoding writes), a
// string slot for a Str. CreateTable compiles it and every partition's
// instance of the table shares it, so a Col resolved against it reads and
// writes that table's rows wherever they live. Words and strings sit in
// separate arrays: the word side holds no pointers.
type Layout struct {
	schema   *TableSchema
	tid      int            // the table's place in creation order (tableSet.list)
	cols     []Col          // schema order
	byName   map[string]Col // and "id", the primary key
	nWords   int
	nStrs    int
	all      uint64 // a bit per column: the NULL bitmap of a row with nothing set
	required uint64 // the bits of the columns that may not be NULL
}

// idOrd is the primary key's ordinal: it has no NULL bit and no slot.
const idOrd = -1

// Col is a column of one table's layout, resolved by name once
// (Layout.Col) and used from then on to address the column's slot without
// hashing its name. It is only meaningful for rows of that layout; every
// accessor checks.
type Col struct {
	lay  *Layout
	ord  int16
	slot int16
	typ  ColType
}

// Name returns the column's name.
func (c Col) Name() string {
	if c.ord == idOrd {
		return "id"
	}
	return c.lay.schema.Columns[c.ord].Name
}

// Type returns the column's value type.
func (c Col) Type() ColType { return c.typ }

func (c Col) bit() uint64 {
	if c.ord == idOrd {
		return 0
	}
	return 1 << uint(c.ord)
}

func (c Col) nullable() bool {
	return c.ord != idOrd && c.lay.schema.Columns[c.ord].Nullable
}

// compile builds the layout of a validated schema.
func compile(s *TableSchema, tid int) *Layout {
	l := &Layout{schema: s, tid: tid, byName: make(map[string]Col, len(s.Columns)+1)}
	l.byName["id"] = Col{lay: l, ord: idOrd, typ: Int}
	for i, sc := range s.Columns {
		c := Col{lay: l, ord: int16(i), typ: sc.Type}
		if sc.Type == Str {
			c.slot = int16(l.nStrs)
			l.nStrs++
		} else {
			c.slot = int16(l.nWords)
			l.nWords++
		}
		l.all |= c.bit()
		if !sc.Nullable {
			l.required |= c.bit()
		}
		l.cols = append(l.cols, c)
		l.byName[sc.Name] = c
	}
	return l
}

// Col resolves a column by name; "id" is the primary key.
func (l *Layout) Col(name string) (Col, error) {
	c, ok := l.byName[name]
	if !ok {
		return Col{}, fmt.Errorf("relstore: table %s has no column %s", l.schema.Name, name)
	}
	return c, nil
}

// Columns returns every declared column, in schema order.
func (l *Layout) Columns() []Col { return append([]Col(nil), l.cols...) }

// Row is one immutable version of a record: a primary key, a NULL bitmap
// and the column slots of its table's Layout. Readers receive pointers to
// the stored versions themselves — there is no copy to mutate and no way to
// mutate one: slots are written only through a Draft, before the version is
// published, and never afterwards. A *Row stays valid (and unchanged) for
// as long as the caller holds it, whatever the writer does next.
//
// The slots live beside the row in its slab (see rowSlab): w0 and s0 are
// where its words and its strings start there.
//
// The version-chain fields make a Row visible to a reader at epoch e when
// begin <= e and (end == 0 or end > e). begin is written before the version
// is published via an atomic head store; end is set once, when a newer
// version supersedes the row; prev is atomic so version GC can truncate the
// tail while readers walk the chain.
type Row struct {
	slab   *rowSlab
	w0, s0 uint32
	id     int64
	null   uint64

	begin uint64 // 0 = a draft, not yet published
	end   atomic.Uint64
	prev  atomic.Pointer[Row]
}

// rowSlab is one writer-owned chunk of a table's rows: the Row headers and,
// in two flat arrays beside them, their slots — row i's words are
// words[i*nWords:][:nWords], its strings strs[i*nStrs:][:nStrs]. The loader
// inserts millions of rows that live forever, so one allocation per chunk
// instead of three per row is pure win; the price is that the collector can
// only reclaim a whole slab, so one live row pins its neighbours (and the
// strings their slots hold). The word array holds no pointers.
type rowSlab struct {
	lay   *Layout
	rows  []Row
	words []uint64
	strs  []string
}

// ID returns the row's primary key.
func (r *Row) ID() int64 { return r.id }

// Layout returns the layout of the row's table.
func (r *Row) Layout() *Layout { return r.slab.lay }

func (r *Row) word(c Col) uint64       { return r.slab.words[r.w0+uint32(c.slot)] }
func (r *Row) str(c Col) string        { return r.slab.strs[r.s0+uint32(c.slot)] }
func (r *Row) setWord(c Col, w uint64) { r.slab.words[r.w0+uint32(c.slot)] = w }
func (r *Row) setStr(c Col, s string)  { r.slab.strs[r.s0+uint32(c.slot)] = s }

// copySlots makes r, an unpublished row, a copy of a stored row of its
// table: same primary key, NULL bitmap and slots.
func (r *Row) copySlots(of *Row) {
	lay := r.slab.lay
	r.id, r.null = of.id, of.null
	copy(r.slab.words[r.w0:][:lay.nWords], of.slab.words[of.w0:])
	copy(r.slab.strs[r.s0:][:lay.nStrs], of.slab.strs[of.s0:])
}

// check panics when c is not a column of r's table holding a t: reading a
// column through another table's handle, or as another type, is a bug in
// the caller that no input can cause.
func (r *Row) check(c Col, t ColType) {
	if c.lay != r.slab.lay || c.typ != t {
		r.misread(c, t)
	}
}

// misread is check's panic, apart so that check inlines into the getters.
func (r *Row) misread(c Col, t ColType) {
	panic(fmt.Sprintf("relstore: %s column %s read as a %s column of table %s", c.typ, c.describe(), t, r.slab.lay.schema.Name))
}

func (c Col) describe() string {
	if c.lay == nil {
		return "(unresolved)"
	}
	return c.lay.schema.Name + "." + c.Name()
}

// IsNull reports whether the column is NULL in this row. The primary key
// never is.
func (r *Row) IsNull(c Col) bool {
	r.check(c, c.typ)
	return r.null&c.bit() != 0
}

// Int returns an Int column's value, 0 when it is NULL.
func (r *Row) Int(c Col) int64 {
	r.check(c, Int)
	v, _ := r.intAt(c)
	return v
}

// intAt is slotAt for an Int column.
func (r *Row) intAt(c Col) (v int64, null bool) {
	null, word, _ := r.slotAt(c)
	return int64(word), null
}

// Float returns a Float column's value, 0 when it is NULL.
func (r *Row) Float(c Col) float64 {
	r.check(c, Float)
	if r.null&c.bit() != 0 {
		return 0
	}
	return math.Float64frombits(r.word(c))
}

// Str returns a Str column's value, "" when it is NULL.
func (r *Row) Str(c Col) string {
	r.check(c, Str)
	if r.null&c.bit() != 0 {
		return ""
	}
	return r.str(c)
}

// Bool returns a Bool column's value, false when it is NULL.
func (r *Row) Bool(c Col) bool {
	r.check(c, Bool)
	return r.null&c.bit() == 0 && r.word(c) != 0
}

// Time returns a Time column's value in UTC, the zero time when it is NULL.
func (r *Row) Time(c Col) time.Time {
	r.check(c, Time)
	if r.null&c.bit() != 0 {
		return time.Time{}
	}
	return time.Unix(0, int64(r.word(c))).UTC()
}

// timeWord is the UnixNano word a Time slot holds for t, and whether t has
// one: an instant before 1678 or after 2262 — the zero time.Time among
// them — does not fit 64 bits of nanoseconds.
func timeWord(t time.Time) (uint64, bool) {
	ns := t.UnixNano()
	return uint64(ns), time.Unix(0, ns).Equal(t)
}

// errTimeRange reports a time no Time slot of column c can hold.
func errTimeRange(c Col, t time.Time) error {
	return fmt.Errorf("relstore: %s: time %s is outside the representable range (years 1678 to 2262)", c.describe(), t.Format(time.RFC3339Nano))
}

// Draft is a row under construction: Writer.NewRow hands out an empty one
// to insert, Writer.Edit a copy of a stored row's newest version to update.
// The setters record the first failure and ignore everything after it;
// Writer.Insert or Writer.Update then reports that failure and writes
// nothing, so a row is built with plain calls and checked once.
type Draft struct {
	row *Row
	err error
}

// Err returns the first error a setter (or NewRow or Edit) met, if any.
func (d *Draft) Err() error { return d.err }

// slot checks that c is a settable column of the draft's table holding a t
// and clears its NULL bit.
func (d *Draft) slot(c Col, t ColType) bool {
	if d.err != nil {
		return false
	}
	r := d.row
	switch {
	case r == nil:
		d.err = fmt.Errorf("relstore: a Draft comes from Writer.NewRow or Writer.Edit")
	case r.begin != 0:
		d.err = fmt.Errorf("relstore: %s row %d is stored; a stored row is immutable", r.slab.lay.schema.Name, r.id)
	case c.lay != r.slab.lay:
		d.err = fmt.Errorf("relstore: column %s is not a column of table %s", c.describe(), r.slab.lay.schema.Name)
	case c.ord == idOrd:
		d.err = fmt.Errorf("relstore: table %s: the primary key is assigned by the table", r.slab.lay.schema.Name)
	case c.typ != t:
		d.err = fmt.Errorf("relstore: %s: a %s value set on a %s column", c.describe(), t, c.typ)
	default:
		r.null &^= c.bit()
		return true
	}
	return false
}

// SetInt sets an Int column.
func (d *Draft) SetInt(c Col, v int64) {
	if d.slot(c, Int) {
		d.row.setWord(c, uint64(v))
	}
}

// SetFloat sets a Float column.
func (d *Draft) SetFloat(c Col, v float64) {
	if d.slot(c, Float) {
		d.row.setWord(c, math.Float64bits(v))
	}
}

// SetStr sets a Str column.
func (d *Draft) SetStr(c Col, v string) {
	if d.slot(c, Str) {
		d.row.setStr(c, v)
	}
}

// SetBool sets a Bool column.
func (d *Draft) SetBool(c Col, v bool) {
	if d.slot(c, Bool) {
		var w uint64
		if v {
			w = 1
		}
		d.row.setWord(c, w)
	}
}

// SetTime sets a Time column to the instant t, whatever its zone. An
// instant outside the UnixNano range is refused: the slot could only hold
// a different one.
func (d *Draft) SetTime(c Col, t time.Time) {
	if !d.slot(c, Time) {
		return
	}
	w, ok := timeWord(t)
	if !ok {
		d.row.null |= c.bit()
		d.err = errTimeRange(c, t)
		return
	}
	d.row.setWord(c, w)
}

// SetNull makes a nullable column NULL (what every column of a new row is
// until it is set).
func (d *Draft) SetNull(c Col) {
	if !d.slot(c, c.typ) {
		return
	}
	if !c.nullable() {
		d.err = fmt.Errorf("relstore: table %s: column %s may not be null", c.lay.schema.Name, c.Name())
		return
	}
	d.row.null |= c.bit()
	if c.typ == Str {
		d.row.setStr(c, "")
	} else {
		d.row.setWord(c, 0)
	}
}

// missingRequired names the first non-nullable column the draft left NULL.
func (r *Row) missingRequired() error {
	miss := r.null & r.slab.lay.required
	if miss == 0 {
		return nil
	}
	return fmt.Errorf("relstore: table %s: column %s is required", r.slab.lay.schema.Name, r.slab.lay.cols[bits.TrailingZeros64(miss)].Name())
}

// slotAt reads column c of r untyped, for the key and comparison code,
// which only holds columns compile resolved: whether it is NULL, else its
// word (the primary key's included) or its string.
func (r *Row) slotAt(c Col) (null bool, word uint64, str string) {
	switch {
	case c.ord == idOrd:
		return false, uint64(r.id), ""
	case r.null&c.bit() != 0:
		return true, 0, ""
	case c.typ == Str:
		return false, 0, r.str(c)
	}
	return false, r.word(c), ""
}

// sameSlots reports whether two rows of one table agree on every column of
// cols — whether an update left a key where it was, or a candidate holds
// the key a new row wants.
func sameSlots(a, b *Row, cols []Col) bool {
	for _, c := range cols {
		an, aw, as := a.slotAt(c)
		bn, bw, bs := b.slotAt(c)
		if an != bn || aw != bw || as != bs {
			return false
		}
	}
	return true
}
