package relstore

import "sync/atomic"

// rowMap maps a table's int64 primary keys to row chains. Primary keys
// are assigned densely from 1, so a two-level page table indexed by id
// replaces the generic hash map this used to be (a sync.Map): Load is
// two atomic loads and some arithmetic, and a page holds the chains
// themselves — a chain is its head pointer — so a row costs one slot and
// a reader one hop to its newest version.
//
// Concurrency follows the store's single-writer discipline: slot runs
// under the partition's writeMu only (entries are never removed); Load and
// Range are lock-free and safe concurrently with the writer. The directory grows copy-on-write
// (pages never move), so a reader that loaded an old directory still
// sees every page it contains.
type rowMap struct {
	dir atomic.Pointer[[]atomic.Pointer[rowPage]]
}

const (
	rowPageShift = 10
	rowPageSize  = 1 << rowPageShift // chains per page
)

type rowPage [rowPageSize]rowChain

// Load returns the chain of row id, or (nil, false) when no version of it
// was ever published.
func (m *rowMap) Load(id int64) (*rowChain, bool) {
	if id < 0 {
		return nil, false
	}
	dp := m.dir.Load()
	if dp == nil {
		return nil, false
	}
	pi := int(id >> rowPageShift)
	if pi >= len(*dp) {
		return nil, false
	}
	p := (*dp)[pi].Load()
	if p == nil {
		return nil, false
	}
	if c := &p[id&(rowPageSize-1)]; c.head.Load() != nil {
		return c, true
	}
	return nil, false
}

// slot returns the chain of row id for the writer to publish a version
// into, growing the table to hold it. Writer-only.
func (m *rowMap) slot(id int64) *rowChain {
	if id < 0 {
		panic("relstore: negative row id")
	}
	pi := int(id >> rowPageShift)
	dp := m.dir.Load()
	if dp == nil || pi >= len(*dp) {
		n := 8
		if dp != nil && len(*dp)*2 > n {
			n = len(*dp) * 2
		}
		for n <= pi {
			n *= 2
		}
		nd := make([]atomic.Pointer[rowPage], n)
		if dp != nil {
			for i := range *dp {
				nd[i].Store((*dp)[i].Load())
			}
		}
		m.dir.Store(&nd)
		dp = &nd
	}
	p := (*dp)[pi].Load()
	if p == nil {
		p = new(rowPage)
		(*dp)[pi].Store(p)
	}
	return &p[id&(rowPageSize-1)]
}

// Range calls f for every stored chain in ascending id order until f
// returns false. Entries stored concurrently may or may not be visited,
// as with any lock-free iteration.
func (m *rowMap) Range(f func(id int64, c *rowChain) bool) {
	dp := m.dir.Load()
	if dp == nil {
		return
	}
	for pi := range *dp {
		p := (*dp)[pi].Load()
		if p == nil {
			continue
		}
		for si := range p {
			if c := &p[si]; c.head.Load() != nil {
				if !f(int64(pi)<<rowPageShift|int64(si), c) {
					return
				}
			}
		}
	}
}
