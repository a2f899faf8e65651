package trace

import "sync"

// Ring slots are fixed-width words (ring.go), so span labels — workflow
// uuids, queue names — are stored as indices into a process-wide name
// table: a map and its inverse slice under one RWMutex. A lookup — a hit,
// or a miss once the table is full — takes the read lock and allocates
// nothing; the write lock is for the first sighting of a label, which
// costs one map insert and one amortised append however many labels came
// before it.

// maxNames bounds the table so a label-cardinality explosion cannot grow
// memory without bound; labels past the cap collapse to index 0 ("").
const maxNames = 65536

var names = struct {
	mu     sync.RWMutex
	byName map[string]uint32
	byIdx  []string // index -> name; append-only
}{byName: map[string]uint32{"": 0}, byIdx: []string{""}}

// nameIdx interns a label, returning its slot index.
func nameIdx(name string) uint32 {
	if name == "" {
		return 0
	}
	names.mu.RLock()
	idx, ok := names.byName[name]
	full := len(names.byIdx) >= maxNames
	names.mu.RUnlock()
	if ok || full {
		return idx
	}
	names.mu.Lock()
	defer names.mu.Unlock()
	if idx, ok := names.byName[name]; ok {
		return idx
	}
	if len(names.byIdx) >= maxNames {
		return 0
	}
	idx = uint32(len(names.byIdx))
	names.byName[name] = idx
	names.byIdx = append(names.byIdx, name)
	return idx
}

// nameAt resolves a slot index back to its label.
func nameAt(idx uint32) string {
	names.mu.RLock()
	defer names.mu.RUnlock()
	if int(idx) < len(names.byIdx) {
		return names.byIdx[idx]
	}
	return ""
}
