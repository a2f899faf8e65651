// Package relstore is an embedded, in-process relational store: typed
// tables with auto-increment primary keys, unique and secondary indexes,
// foreign-key checks, predicate queries, and write-ahead-log persistence.
//
// The published Stampede loader writes to SQLite/MySQL/PostgreSQL through
// SQLAlchemy; this repository is stdlib-only, so relstore supplies the
// relational semantics the archive layer (the paper's Figure 3 schema)
// needs: indexed point lookups for the high-rate load path and scans with
// filters for the query interface.
package relstore

import (
	"fmt"
	"time"
)

// ColType enumerates column value types.
type ColType int

const (
	Int ColType = iota
	Float
	Str
	Time
	Bool
)

func (t ColType) String() string {
	switch t {
	case Int:
		return "int"
	case Float:
		return "float"
	case Str:
		return "string"
	case Time:
		return "time"
	case Bool:
		return "bool"
	}
	return "unknown"
}

// Column describes one column of a table.
type Column struct {
	Name     string
	Type     ColType
	Nullable bool
}

// holds reports whether v is a canonical stored value for the column: the
// column type's Go type, or nil when the column is nullable.
func (c Column) holds(v any) bool {
	switch v.(type) {
	case nil:
		return c.Nullable
	case int64:
		return c.Type == Int
	case float64:
		return c.Type == Float
	case string:
		return c.Type == Str
	case time.Time:
		return c.Type == Time
	case bool:
		return c.Type == Bool
	}
	return false
}

// ForeignKey declares that values of Column must name a row of RefTable by
// its primary key: RefColumn must be "id", the only target any schema here
// has ever declared, which makes the check one lock-free row lookup.
type ForeignKey struct {
	Column    string
	RefTable  string
	RefColumn string
}

// TableSchema describes a table. Every table gets an implicit integer
// primary-key column named "id" that auto-increments; declaring a column
// named "id" explicitly is an error.
type TableSchema struct {
	Name    string
	Columns []Column
	// Unique constraints; each entry is a list of column names whose
	// combined value must be unique across rows (nulls compare equal,
	// intentionally stricter than SQL).
	Unique [][]string
	// Indexes are non-unique secondary indexes for fast equality lookup.
	Indexes [][]string
	// ForeignKeys are checked on insert and update.
	ForeignKeys []ForeignKey
}

func (s *TableSchema) validate() error {
	if s.Name == "" {
		return fmt.Errorf("relstore: table with empty name")
	}
	seen := map[string]ColType{}
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("relstore: table %s has a column with empty name", s.Name)
		}
		if c.Name == "id" {
			return fmt.Errorf("relstore: table %s declares reserved column id", s.Name)
		}
		if _, dup := seen[c.Name]; dup {
			return fmt.Errorf("relstore: table %s has duplicate column %s", s.Name, c.Name)
		}
		seen[c.Name] = c.Type
	}
	check := func(kind string, cols []string) error {
		if len(cols) == 0 {
			return fmt.Errorf("relstore: table %s has an empty %s", s.Name, kind)
		}
		for _, c := range cols {
			if _, ok := seen[c]; !ok && c != "id" {
				return fmt.Errorf("relstore: table %s %s references unknown column %s", s.Name, kind, c)
			}
		}
		return nil
	}
	for _, u := range s.Unique {
		if err := check("unique constraint", u); err != nil {
			return err
		}
	}
	for _, ix := range s.Indexes {
		if err := check("index", ix); err != nil {
			return err
		}
	}
	for _, fk := range s.ForeignKeys {
		if _, ok := seen[fk.Column]; !ok {
			return fmt.Errorf("relstore: table %s foreign key on unknown column %s", s.Name, fk.Column)
		}
		if fk.RefColumn != "id" {
			return fmt.Errorf("relstore: table %s foreign key %s references %s.%s: only a primary key (id) can be referenced",
				s.Name, fk.Column, fk.RefTable, fk.RefColumn)
		}
	}
	return nil
}

// Row is one record: column name to value. Values are int64, float64,
// string, time.Time, bool, or nil. The primary key appears under "id"
// after insert.
type Row map[string]any

// Clone returns a shallow copy of the row (values are immutable types).
func (r Row) Clone() Row {
	c := make(Row, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// ID returns the row's primary key.
func (r Row) ID() int64 {
	id, _ := r["id"].(int64)
	return id
}

// coerce normalises a dynamic value to the column's canonical Go type.
// Numeric widening (int->int64, int64->float64 for Float columns, JSON's
// float64 -> int64 for Int columns when integral) is permitted; anything
// else is a type error. When the value is already canonical, the original
// interface v is returned untouched — unwrapping to the concrete type and
// returning that would re-box the value, one avoidable heap allocation per
// column on the insert hot path.
func coerce(table, col string, t ColType, v any) (any, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case Int:
		switch x := v.(type) {
		case int64:
			return v, nil
		case int:
			return int64(x), nil
		case int32:
			return int64(x), nil
		case float64:
			if x == float64(int64(x)) {
				return int64(x), nil
			}
		}
	case Float:
		switch x := v.(type) {
		case float64:
			return v, nil
		case float32:
			return float64(x), nil
		case int64:
			return float64(x), nil
		case int:
			return float64(x), nil
		}
	case Str:
		if _, ok := v.(string); ok {
			return v, nil
		}
	case Time:
		switch x := v.(type) {
		case time.Time:
			if x.Location() == time.UTC {
				return v, nil
			}
			return x.UTC(), nil
		case string:
			ts, err := time.Parse(time.RFC3339Nano, x)
			if err == nil {
				return ts.UTC(), nil
			}
		}
	case Bool:
		if _, ok := v.(bool); ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("relstore: %s.%s: value %v (%T) is not a %s", table, col, v, v, t)
}
