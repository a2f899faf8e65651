package relstore

// The store's mutation surface is Writer.InsertOwned and Writer.Update;
// these helpers let tests say "insert this" and "update that row" without
// repeating the routing. They clone what they hand over, so a test may keep
// using its row literal.

// insAt inserts a copy of row through partition part's writer.
func insAt(s *Store, part int, table string, row Row) (int64, error) {
	return s.Writer(part).InsertOwned(table, row.Clone())
}

// ins is insAt on partition 0, where single-partition tests live.
func ins(s *Store, table string, row Row) (int64, error) {
	return insAt(s, 0, table, row)
}

// upd updates row id through the writer of the partition that holds it
// (rows never migrate, so a lock-free probe finds the owner); an id no
// partition holds goes to partition 0, which reports it missing.
func upd(s *Store, table string, id int64, changes Row) error {
	for i, p := range s.parts {
		if t, ok := p.tables.Load().byName[table]; ok {
			if _, ok := t.rows.Load(id); ok {
				return s.Writer(i).Update(table, id, changes.Clone())
			}
		}
	}
	return s.Writer(0).Update(table, id, changes.Clone())
}
