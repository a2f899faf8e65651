package relstore

import "sync/atomic"

// rowMap maps a table's int64 primary keys to row chains. Primary keys
// are assigned densely from 1, so a two-level page table indexed by id
// replaces the generic hash map this used to be (a sync.Map): Load is
// two atomic loads and some arithmetic, Store writes one slot, and
// neither boxes the key into an interface the way an any-keyed map
// forces — on the loader's insert path that boxing plus the map's
// per-entry nodes were several heap allocations per row.
//
// Concurrency follows the store's single-writer discipline: Store runs
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

type rowPage [rowPageSize]atomic.Pointer[rowChain]

// Load returns the chain stored under id, or (nil, false).
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
	c := p[id&(rowPageSize-1)].Load()
	return c, c != nil
}

// Store publishes chain under id. Writer-only.
func (m *rowMap) Store(id int64, c *rowChain) {
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
	p[id&(rowPageSize-1)].Store(c)
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
			if c := p[si].Load(); c != nil {
				if !f(int64(pi)<<rowPageShift|int64(si), c) {
					return
				}
			}
		}
	}
}
