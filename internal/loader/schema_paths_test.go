package loader_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/eventlog"
	"repro/internal/loader"
	"repro/internal/schema"
	"repro/internal/uuid"
	"repro/internal/yang"
)

var pathsT0 = time.Date(2012, 3, 13, 12, 35, 38, 0, time.UTC)

// minimalEvent is an event of container c carrying xwf.id wf and every
// mandatory leaf, each with a value of its declared type, except the leaf
// named skip. String leaves all read "x", so a stream of every container in
// declaration order references the task and job its own events describe.
func minimalEvent(c *yang.Container, wf, skip string) *bp.Event {
	ev := bp.New(c.Name, pathsT0).Set(schema.AttrXwfID, wf)
	for _, leaf := range c.OrderedLeaves() {
		if !leaf.Mandatory || leaf.Name == bp.KeyTS || leaf.Name == skip {
			continue
		}
		var v string
		switch leaf.Type {
		case yang.TypeString:
			v = "x"
		case yang.TypeInt32, yang.TypeUint32, yang.TypeInt64:
			v = "0"
		case yang.TypeDecimal:
			v = "1.5"
		case yang.TypeUUID:
			v = wf
		case yang.TypeTimestamp:
			v = pathsT0.Format(bp.TimeFormat)
		case yang.TypeEnum:
			v = leaf.EnumValues[0]
		}
		ev.Set(leaf.Name, v)
	}
	return ev
}

// minimalStream is one minimal event of every schema container, in
// declaration order, for workflow wf.
func minimalStream(t *testing.T, wf string) []*bp.Event {
	t.Helper()
	m, err := schema.Model()
	if err != nil {
		t.Fatal(err)
	}
	var evs []*bp.Event
	for _, name := range m.ContainerNames() {
		evs = append(evs, minimalEvent(m.Containers[name], wf, ""))
	}
	return evs
}

func hashOf(t *testing.T, a *archive.Archive) string {
	t.Helper()
	sn := a.Snapshot()
	defer sn.Close()
	h, err := sn.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestEveryContainerHasAHandler: a minimal valid event of every container
// the schema declares applies through Archive.Apply. A container added to
// the schema without an entry in the archive's fold table fails here with
// ErrUnknownEvent, instead of reaching a load as an Unknown count.
func TestEveryContainerHasAHandler(t *testing.T) {
	a := archive.NewInMemory()
	for _, ev := range minimalStream(t, uuid.New().String()) {
		switch err := a.Apply(ev); {
		case errors.Is(err, archive.ErrUnknownEvent):
			t.Errorf("container %s has no archive handler: %v", ev.Type, err)
		case err != nil:
			t.Errorf("minimal %s: %v", ev.Type, err)
		}
	}
}

// TestEveryPathRefusesMissingMandatoryLeaf removes each mandatory leaf in
// turn from a valid event of each container (ts aside: the BP line carries
// it, and a line without one does not parse) and sends the event down every
// shipped ingest path: the lenient loader, the strict loader, an event-log
// rebuild and a direct Archive.Apply. Each must refuse it — counted
// Invalid, or the validator's error — and leave the store hashing as the
// same stream without it. The refused event names a workflow of its own, so
// a path that folded any part of it would add rows.
func TestEveryPathRefusesMissingMandatoryLeaf(t *testing.T) {
	m, err := schema.Model()
	if err != nil {
		t.Fatal(err)
	}
	prefix := minimalStream(t, uuid.New().String())
	suffix := minimalStream(t, uuid.New().String())
	lines := func(evs ...[]*bp.Event) string {
		var b strings.Builder
		for _, part := range evs {
			for _, ev := range part {
				b.WriteString(ev.Format())
				b.WriteByte('\n')
			}
		}
		return b.String()
	}
	direct := func(evs ...[]*bp.Event) *archive.Archive {
		a := archive.NewInMemory()
		for _, part := range evs {
			for _, ev := range part {
				if err := a.Apply(ev); err != nil {
					t.Fatalf("reference %s: %v", ev.Type, err)
				}
			}
		}
		return a
	}
	wantLenient := hashOf(t, direct(prefix, suffix))
	wantStrict := hashOf(t, direct(prefix))
	n := uint64(len(prefix) + len(suffix))

	cases := 0
	for _, name := range m.ContainerNames() {
		c := m.Containers[name]
		for _, leaf := range c.OrderedLeaves() {
			if !leaf.Mandatory || leaf.Name == bp.KeyTS {
				continue
			}
			cases++
			what := fmt.Sprintf("%s without %s", name, leaf.Name)
			bad := []*bp.Event{minimalEvent(c, uuid.New().String(), leaf.Name)}
			missing := fmt.Sprintf("missing mandatory attribute %q", leaf.Name)

			a := archive.NewInMemory()
			l, _ := loader.New(a, loader.Options{Lenient: true})
			st, err := l.LoadReader(strings.NewReader(lines(prefix, bad, suffix)))
			if err != nil || st.Invalid != 1 || st.Loaded != n || st.Unknown != 0 {
				t.Errorf("%s: lenient load %s, %v; want %d loaded and 1 invalid", what, st.String(), err, n)
			} else if got := hashOf(t, a); got != wantLenient {
				t.Errorf("%s: lenient load hashes %s, the stream without it %s", what, got, wantLenient)
			}

			a = archive.NewInMemory()
			l, _ = loader.New(a, loader.Options{})
			st, err = l.LoadReader(strings.NewReader(lines(prefix, bad)))
			if err == nil || !strings.Contains(err.Error(), "loader: "+name+": ") || !strings.Contains(err.Error(), missing) {
				t.Errorf("%s: strict load error %v; want it to name the event type and the missing leaf", what, err)
			} else if st.Invalid != 1 || st.Loaded != uint64(len(prefix)) {
				t.Errorf("%s: strict load %s; want %d loaded and 1 invalid", what, st.String(), len(prefix))
			} else if got := hashOf(t, a); got != wantStrict {
				t.Errorf("%s: strict load hashes %s, the stream before it %s", what, got, wantStrict)
			}

			lg, err := eventlog.Open(t.TempDir(), eventlog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, ln := range strings.SplitAfter(lines(prefix, bad, suffix), "\n") {
				if ln == "" {
					continue
				}
				if _, err := lg.Append([]byte(strings.TrimSuffix(ln, "\n"))); err != nil {
					t.Fatal(err)
				}
			}
			if err := lg.Flush(); err != nil {
				t.Fatal(err)
			}
			a, st, err = eventlog.Rebuild(lg, 0)
			lg.Close()
			if err != nil || st.Invalid != 1 || st.Loaded != n {
				t.Errorf("%s: rebuild %s, %v; want %d loaded and 1 invalid", what, st.String(), err, n)
			} else if got := hashOf(t, a); got != wantLenient {
				t.Errorf("%s: rebuild hashes %s, the stream without it %s", what, got, wantLenient)
			}

			a = direct(prefix)
			var verr *schema.ValidationError
			if err := a.Apply(bad[0]); !errors.As(err, &verr) || !strings.Contains(err.Error(), missing) {
				t.Errorf("%s: Archive.Apply = %v; want the validator's refusal naming the leaf", what, err)
			} else if n, err := a.ApplyBatch(append(bad, suffix...)); n != 0 || !errors.As(err, &verr) {
				t.Errorf("%s: Archive.ApplyBatch = %d, %v; want 0 and the validator's refusal", what, n, err)
			} else if got := hashOf(t, a); got != wantStrict {
				t.Errorf("%s: direct apply hashes %s, the stream before it %s", what, got, wantStrict)
			}
		}
	}
	if cases < 70 {
		t.Fatalf("only %d mandatory leaves found across the schema", cases)
	}
}
