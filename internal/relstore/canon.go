package relstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
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

// typeTags are the canonical value tags by column type; a NULL of any type
// is tagged 'n'.
var typeTags = [...]byte{Int: 'i', Float: 'f', Str: 's', Time: 't', Bool: 'b'}

// row writes one row of a table's state: the "row" marker, then rowBody.
func (c *canonWriter) row(r *Row) error {
	c.str("row")
	return c.rowBody(r)
}

// rowBody writes the primary key, then every column in schema order as a
// type tag and the slot behind it — the one row encoding, which a WAL frame
// carries without the marker. An Int, Bool or Time slot is written as the
// word it is (a Time's word is its UTC UnixNano), a Float as its shortest
// round-tripping decimal text, a Str as its bytes.
func (c *canonWriter) rowBody(r *Row) error {
	c.uint(uint64(r.id))
	for _, col := range r.slab.lay.cols {
		if r.null&col.bit() != 0 {
			c.tag('n')
			continue
		}
		c.tag(typeTags[col.typ])
		switch col.typ {
		case Str:
			c.str(r.str(col))
		case Float:
			b := strconv.AppendFloat(c.num[:0], math.Float64frombits(r.word(col)), 'g', -1, 64)
			c.uint(uint64(len(b)))
			if c.err == nil {
				_, c.err = c.w.Write(b)
			}
		default:
			c.uint(r.word(col))
		}
	}
	return c.err
}

// writeTableState writes one table's visible rows at one epoch: the
// "table" marker, name, row count, then rows in primary-key order.
func (c *canonWriter) writeTableState(t *table, epoch uint64) error {
	rows := make([]*Row, 0, t.live.Load())
	t.rows.Range(func(_ int64, ch *rowChain) bool {
		if ver := ch.visibleAt(epoch); ver != nil {
			rows = append(rows, ver)
		}
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	name := t.schema.Name
	c.str("table")
	c.str(name)
	c.uint(uint64(len(rows)))
	for _, r := range rows {
		if err := c.row(r); err != nil {
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

// rowBody reads what canonWriter.rowBody wrote into row, a draft of the
// table the bytes belong to: every column arrives behind its own type's tag
// or, when it is nullable, the NULL tag, and anything else is an error
// rather than a row the indexes would choke on.
func (c *canonReader) rowBody(row *Row) error {
	id, err := c.uint()
	if err != nil {
		return err
	}
	row.id = int64(id)
	for _, col := range row.slab.lay.cols {
		tag, err := c.tag()
		if err != nil {
			return err
		}
		if tag == 'n' && col.nullable() {
			continue
		}
		if tag != typeTags[col.typ] {
			return fmt.Errorf("relstore: %s id=%d: a stored value tagged %q is not a %s", col.describe(), row.id, tag, col.typ)
		}
		row.null &^= col.bit()
		switch col.typ {
		case Str:
			str, err := c.str()
			if err != nil {
				return err
			}
			row.setStr(col, str)
		case Float:
			b, err := c.bytes()
			if err != nil {
				return err
			}
			f, err := strconv.ParseFloat(string(b), 64)
			if err != nil {
				return err
			}
			row.setWord(col, math.Float64bits(f))
		default:
			w, err := c.uint()
			if err != nil {
				return err
			}
			if col.typ == Bool && w != 0 {
				w = 1
			}
			row.setWord(col, w)
		}
	}
	return nil
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
