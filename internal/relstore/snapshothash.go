package relstore

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
)

// Hash returns a deterministic digest of the snapshot's entire visible
// state: SHA-256 over the canonical serialization (canon.go) of every
// table. Two snapshots hash equal iff they hold the same rows with the
// same primary keys and values — which is exactly the
// bit-identical-materialization property the event log's replay tests
// assert (rebuild the store twice from the same log prefix, hash both,
// compare).
//
// The serialization is canonical, never "whatever iteration order the
// maps had": tables in sorted-name order, rows in primary-key order (the
// order Select already guarantees, merged across partitions), columns in
// schema declaration order with the id first, and every value rendered
// through an explicit type-tagged encoding (times as UTC nanoseconds, so
// no location or formatting ambiguity survives). Nothing
// wall-clock-dependent is hashed: no epochs, no snapshot timestamps, no
// WAL positions — and nothing partition-dependent either: primary keys
// are allocated in call order from per-table counters shared across
// partitions and Select merges partitions back into primary-key order, so
// the same event history replayed into stores with different partition
// counts hashes identically. Checkpoint images reuse this exact
// serialization per partition.
func (sn *Snapshot) Hash() (string, error) {
	h := sha256.New()
	cw := &canonWriter{w: h}
	names := sn.TableNames()
	sort.Strings(names)
	for _, name := range names {
		cw.str("table")
		cw.str(name)
		rows, err := sn.Select(Query{Table: name})
		if err != nil {
			return "", err
		}
		cw.uint(uint64(len(rows)))
		for _, row := range rows {
			if err := cw.row(row); err != nil {
				return "", err
			}
		}
	}
	if cw.err != nil {
		return "", cw.err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
