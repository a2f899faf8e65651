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

import "fmt"

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
	if len(s.Columns) > maxColumns {
		return fmt.Errorf("relstore: table %s has %d columns; a row's NULL bitmap holds %d", s.Name, len(s.Columns), maxColumns)
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
		ct, ok := seen[fk.Column]
		if !ok {
			return fmt.Errorf("relstore: table %s foreign key on unknown column %s", s.Name, fk.Column)
		}
		if fk.RefColumn != "id" {
			return fmt.Errorf("relstore: table %s foreign key %s references %s.%s: only a primary key (id) can be referenced",
				s.Name, fk.Column, fk.RefTable, fk.RefColumn)
		}
		if ct != Int {
			return fmt.Errorf("relstore: table %s foreign key %s is a %s column: only an int can hold a primary key", s.Name, fk.Column, ct)
		}
	}
	return nil
}
