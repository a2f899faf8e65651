package bp

// Attrs is the event attribute set: a small slice of key=value pairs kept
// sorted by key. Stampede events carry a closed vocabulary of at most a
// dozen-ish attributes, so a sorted slice beats a map on every axis the
// loader hot path cares about: one backing allocation (reused across pool
// recycles) instead of a header plus buckets, cache-line locality on
// lookup, and an iteration order that is already the deterministic order
// Format needs — no per-Format key sort.
//
// The zero value is ready to use. Lookups are linear: for n <= 16 a scan
// is faster than both binary search and map hashing.
type Attrs []Pair

// Pair is one attribute.
type Pair struct {
	Key, Val string
}

// Get returns the value for key, or "" when absent.
func (a Attrs) Get(key string) string {
	for i := range a {
		if a[i].Key == key {
			return a[i].Val
		}
	}
	return ""
}

// Lookup returns the value for key and whether it is present.
func (a Attrs) Lookup(key string) (string, bool) {
	for i := range a {
		if a[i].Key == key {
			return a[i].Val, true
		}
	}
	return "", false
}

// Set stores key=val, replacing any existing value (last write wins, the
// same semantics the old map representation had for duplicate keys).
// Insertion keeps the slice sorted; appending already-sorted input — the
// canonical order Format emits — is the no-move fast path.
func (a *Attrs) Set(key, val string) {
	s := *a
	// Fast path: key sorts at (or replaces) the end.
	if n := len(s); n == 0 || s[n-1].Key < key {
		*a = append(s, Pair{key, val})
		return
	}
	for i := range s {
		if s[i].Key == key {
			s[i].Val = val
			return
		}
		if s[i].Key > key {
			s = append(s, Pair{})
			copy(s[i+1:], s[i:])
			s[i] = Pair{key, val}
			*a = s
			return
		}
	}
	*a = append(s, Pair{key, val})
}

// Clone returns an independent copy of the attribute set.
func (a Attrs) Clone() Attrs {
	if a == nil {
		return nil
	}
	return append(Attrs(nil), a...)
}
