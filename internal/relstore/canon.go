package relstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// Canonical binary serialization of store state, shared by Snapshot.Hash
// (which streams it into SHA-256) and the checkpoint writer/loader (which
// stream it to and from disk). Because both consumers use the exact same
// framing — tables in sorted-name order, rows in primary-key order,
// columns in schema declaration order, every value type-tagged, nothing
// wall-clock- or partition-dependent — a checkpoint image is precisely the
// hashed state, and recovery equivalence can be asserted by comparing
// hashes.

// canonWriter emits the canonical encoding. Write errors stick: the first
// one is kept and all later writes become no-ops, so serialization code
// can stay unconditional and check err once at the end (hash.Hash writers
// never error; file writers can).
//
// compact selects the WAL's denser spelling of the same stream: integers
// and string lengths are uvarints instead of 8 little-endian bytes and a
// type tag is its one byte instead of a one-byte string. The sequence of
// tags, integers and strings is identical, so the row walk below serves
// hash, checkpoint image and WAL frame alike.
type canonWriter struct {
	w       io.Writer
	compact bool
	scratch [binary.MaxVarintLen64]byte
	num     [32]byte // float formatting, so a float value allocates nothing
	err     error
}

func (c *canonWriter) uint(v uint64) {
	if c.err != nil {
		return
	}
	n := 8
	if c.compact {
		n = binary.PutUvarint(c.scratch[:], v)
	} else {
		binary.LittleEndian.PutUint64(c.scratch[:], v)
	}
	_, c.err = c.w.Write(c.scratch[:n])
}

func (c *canonWriter) str(s string) {
	c.uint(uint64(len(s)))
	if c.err != nil {
		return
	}
	_, c.err = io.WriteString(c.w, s)
}

// tag writes a one-character marker: str(string(t)) without the string.
func (c *canonWriter) tag(t byte) {
	if !c.compact {
		c.uint(1)
	}
	if c.err != nil {
		return
	}
	c.scratch[0] = t
	_, c.err = c.w.Write(c.scratch[:1])
}

// value writes one canonical type-tagged value.
func (c *canonWriter) value(v any) error {
	switch x := v.(type) {
	case nil:
		c.tag('n')
	case int64:
		c.tag('i')
		c.uint(uint64(x))
	case float64:
		c.tag('f')
		b := strconv.AppendFloat(c.num[:0], x, 'g', -1, 64)
		c.uint(uint64(len(b)))
		if c.err == nil {
			_, c.err = c.w.Write(b)
		}
	case string:
		c.tag('s')
		c.str(x)
	case bool:
		c.tag('b')
		if x {
			c.uint(1)
		} else {
			c.uint(0)
		}
	case time.Time:
		c.tag('t')
		c.uint(uint64(x.UTC().UnixNano()))
	default:
		return fmt.Errorf("unhashable value type %T", v)
	}
	return c.err
}

// row writes one row of a table's state: the "row" marker, then rowBody.
func (c *canonWriter) row(tableName string, cols []Column, r Row) error {
	c.str("row")
	return c.rowBody(tableName, cols, r)
}

// rowBody writes the primary key, then every value in schema column order
// — the one row encoding, which a WAL frame carries without the marker.
// Error messages keep the shapes Hash has always produced, since replay
// tests match on them.
func (c *canonWriter) rowBody(tableName string, cols []Column, r Row) error {
	id, ok := r["id"].(int64)
	if !ok {
		return fmt.Errorf("relstore: hash %s: row id %v (%T) is not int64", tableName, r["id"], r["id"])
	}
	c.uint(uint64(id))
	for _, col := range cols {
		if err := c.value(r[col.Name]); err != nil {
			return fmt.Errorf("relstore: hash %s.%s id=%d: %w", tableName, col.Name, id, err)
		}
	}
	return c.err
}

// writeTableState writes one table's visible rows at one epoch: the
// "table" marker, name, row count, then rows in primary-key order.
func (c *canonWriter) writeTableState(t *table, epoch uint64) error {
	rows := make([]Row, 0, t.live.Load())
	t.rows.Range(func(_ int64, ch *rowChain) bool {
		if ver := ch.visibleAt(epoch); ver != nil {
			rows = append(rows, ver.row)
		}
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID() < rows[j].ID() })
	name := t.schema.Name
	c.str("table")
	c.str(name)
	c.uint(uint64(len(rows)))
	for _, r := range rows {
		if err := c.row(name, t.schema.Columns, r); err != nil {
			return err
		}
	}
	return c.err
}

// writeState writes a whole table set's visible state at one epoch, in
// sorted table-name order — the framing Hash uses, applied to a single
// partition. This is the checkpoint image body.
func (c *canonWriter) writeState(ts *tableSet, epoch uint64) error {
	names := append([]string(nil), ts.order...)
	sort.Strings(names)
	for _, name := range names {
		if err := c.writeTableState(ts.byName[name], epoch); err != nil {
			return err
		}
	}
	return c.err
}

// canonReader decodes the canonical encoding from memory (a verified
// checkpoint image body, or one WAL frame's payload); compact mirrors the
// writer's. Every length is checked against the bytes that remain before
// anything is sliced or allocated.
type canonReader struct {
	b       []byte
	compact bool
}

func (c *canonReader) uint() (uint64, error) {
	if c.compact {
		v, n := binary.Uvarint(c.b)
		if n <= 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c.b = c.b[n:]
		return v, nil
	}
	if len(c.b) < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v, nil
}

// bytes reads one length-prefixed string without copying it.
func (c *canonReader) bytes() ([]byte, error) {
	n, err := c.uint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.b)) {
		return nil, io.ErrUnexpectedEOF
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b, nil
}

func (c *canonReader) str() (string, error) {
	b, err := c.bytes()
	return string(b), err
}

// tag reads what canonWriter.tag wrote.
func (c *canonReader) tag() (byte, error) {
	if !c.compact {
		if n, err := c.uint(); err != nil {
			return 0, err
		} else if n != 1 {
			return 0, fmt.Errorf("relstore: canonical tag of length %d", n)
		}
	}
	if len(c.b) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	t := c.b[0]
	c.b = c.b[1:]
	return t, nil
}

// value reads one type-tagged value.
func (c *canonReader) value() (any, error) {
	tag, err := c.tag()
	if err != nil {
		return nil, err
	}
	switch tag {
	case 'n':
		return nil, nil
	case 'i':
		v, err := c.uint()
		return int64(v), err
	case 'f':
		b, err := c.bytes()
		if err != nil {
			return nil, err
		}
		return strconv.ParseFloat(string(b), 64)
	case 's':
		return c.str()
	case 'b':
		v, err := c.uint()
		return v != 0, err
	case 't':
		v, err := c.uint()
		return time.Unix(0, int64(v)).UTC(), err
	default:
		return nil, fmt.Errorf("relstore: unknown canonical value tag %q", tag)
	}
}

// rowBody reads what canonWriter.rowBody wrote: values arrive typed, every
// schema column is set (a null one to nil), and a value that does not fit
// its column is an error rather than a row the indexes would choke on.
func (c *canonReader) rowBody(tableName string, cols []Column) (Row, error) {
	id, err := c.uint()
	if err != nil {
		return nil, err
	}
	row := make(Row, len(cols)+1)
	row["id"] = int64(id)
	for _, col := range cols {
		v, err := c.value()
		if err != nil {
			return nil, err
		}
		if !col.holds(v) {
			return nil, fmt.Errorf("relstore: %s.%s id=%d: stored value %v (%T) is not a %s", tableName, col.Name, int64(id), v, v, col.Type)
		}
		row[col.Name] = v
	}
	return row, nil
}

// expect reads a marker string and errors when it differs.
func (c *canonReader) expect(marker string) error {
	got, err := c.bytes()
	if err != nil {
		return err
	}
	if string(got) != marker {
		return fmt.Errorf("relstore: canonical stream: want %q marker, got %q", marker, got)
	}
	return nil
}
