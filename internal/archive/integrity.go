package archive

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/relstore"
)

// CheckIntegrity checks what the archive alone keeps true of a store, as
// sn sees it: every reference (see references) names a live row, and no
// two rows of a table share an identity key (see identities). relstore
// checks neither, so this is the oracle a fold that lost or doubled an
// entity fails. It names the first 20 violations and counts the rest.
func CheckIntegrity(sn *relstore.Snapshot) error {
	rows := map[string][]*relstore.Row{}
	live := map[string]map[int64]bool{}
	for _, ts := range Schemas() {
		rs, err := sn.Select(relstore.Query{Table: ts.Name})
		if err != nil {
			return err
		}
		rows[ts.Name], live[ts.Name] = rs, make(map[int64]bool, len(rs))
		for _, r := range rs {
			live[ts.Name][r.ID()] = true
		}
	}
	var errs []error
	for _, ref := range references {
		c, err := sn.Layout(ref.table).Col(ref.column)
		if err != nil {
			return err
		}
		for _, r := range rows[ref.table] {
			if !r.IsNull(c) && !live[ref.to][r.Int(c)] {
				errs = append(errs, fmt.Errorf("%s row %d: %s = %d names no %s row", ref.table, r.ID(), ref.column, r.Int(c), ref.to))
			}
		}
	}
	for _, key := range identities {
		cols := make([]relstore.Col, len(key.columns))
		for i, name := range key.columns {
			var err error
			if cols[i], err = sn.Layout(key.table).Col(name); err != nil {
				return err
			}
		}
		first := make(map[string]int64, len(rows[key.table]))
		for _, r := range rows[key.table] {
			k := keyText(r, cols)
			if id, dup := first[k]; dup {
				errs = append(errs, fmt.Errorf("%s rows %d and %d share the key %v = (%s)", key.table, id, r.ID(), key.columns, k))
			} else {
				first[k] = r.ID()
			}
		}
	}
	if len(errs) > 20 {
		errs = append(errs[:20], fmt.Errorf("and %d more", len(errs)-20))
	}
	if len(errs) > 0 {
		return fmt.Errorf("archive: integrity: %w", errors.Join(errs...))
	}
	return nil
}

// keyText spells r's values in cols, strings quoted, so distinct keys
// never spell alike. Identity columns are Str or Int.
func keyText(r *relstore.Row, cols []relstore.Col) string {
	var b []byte
	for i, c := range cols {
		if i > 0 {
			b = append(b, ", "...)
		}
		if c.Type() == relstore.Str {
			b = strconv.AppendQuote(b, r.Str(c))
		} else {
			b = strconv.AppendInt(b, r.Int(c), 10)
		}
	}
	return string(b)
}
