package telemetry

import "sort"

// FamilyNames lists every family registered on r, children or not: a
// labelled family with no children yet has no lines in the exposition.
func FamilyNames(r *Registry) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
