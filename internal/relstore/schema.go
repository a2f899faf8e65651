// Package relstore is an embedded, in-process row store: typed tables of
// versioned rows with auto-increment primary keys, secondary indexes,
// predicate queries, and write-ahead-log persistence.
//
// The published Stampede loader writes to SQLite/MySQL/PostgreSQL through
// SQLAlchemy; this repository is stdlib-only, so relstore supplies what the
// archive layer (the paper's Figure 3 schema) needs from a database:
// snapshot reads, indexed lookups for the query interface and durability.
// It enforces no keys and no references: the archive decides the identity
// of every row it writes, and archive.CheckIntegrity checks a whole store.
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

// TableSchema describes a table. Every table gets an implicit integer
// primary-key column named "id" that auto-increments; declaring a column
// named "id" explicitly is an error. A table's identity is its name and
// columns; Indexes can change between opens (see Store.CreateTable).
// Schemas recorded by older versions also carried unique and foreign keys;
// decoding ignores them.
type TableSchema struct {
	Name    string
	Columns []Column
	// Indexes are secondary indexes for fast equality lookup, each a list of
	// column names.
	Indexes [][]string
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
	for _, ix := range s.Indexes {
		if len(ix) == 0 {
			return fmt.Errorf("relstore: table %s has an empty index", s.Name)
		}
		for _, c := range ix {
			if _, ok := seen[c]; !ok && c != "id" {
				return fmt.Errorf("relstore: table %s index references unknown column %s", s.Name, c)
			}
		}
	}
	return nil
}
