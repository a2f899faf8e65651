package views

import (
	"testing"

	"repro/internal/archive"
	"repro/internal/schema"
)

// TestEveryTypeHasAViewsEntry: every event type the schema declares has an
// entry in the views' dispatch, either its own effect (effects, where nil
// says "none") or the jobstate count its archive Lifecycle declares. A
// container added to the schema without either fails here, instead of
// silently changing no view.
func TestEveryTypeHasAViewsEntry(t *testing.T) {
	m, err := schema.Model()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range m.ContainerNames() {
		_, listed := effects[name]
		if !listed && archive.LifecycleOf(schema.TypeOf(name)) == (archive.Lifecycle{}) {
			t.Errorf("event type %s has no views entry", name)
		}
	}
	for name := range effects {
		if schema.TypeOf(name) == 0 {
			t.Errorf("views entry for %s, which the schema does not declare", name)
		}
	}
}
