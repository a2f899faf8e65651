package views_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/loader"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/views"
	"repro/internal/wfclock"
)

// TestIDlessInvocationsAcrossReopen: inv.end events without inv.id (a
// load with validation off) that arrive after a restart are numbered above
// the stored ones, by the reopened archive and by views rebuilt from its
// snapshot alike, so each counts once in both.
func TestIDlessInvocationsAcrossReopen(t *testing.T) {
	t0 := time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC)
	lines := func(from int) string {
		var b strings.Builder
		for sec := from; sec < from+2; sec++ {
			b.WriteString(bp.New(schema.InvEnd, t0.Add(time.Duration(sec)*time.Second)).Set(schema.AttrXwfID, "wf-idless").
				Set(schema.AttrJobID, "j").SetInt(schema.AttrJobInstID, 1).SetFloat(schema.AttrDur, 1).Format() + "\n")
		}
		return b.String()
	}
	dir := t.TempDir()
	load := func(arch *archive.Archive, opts loader.Options, text string) {
		t.Helper()
		ld, err := loader.New(arch, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ld.LoadReader(strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	}
	arch, err := archive.OpenDir(dir, relstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	load(arch, loader.Options{}, lines(0))
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	arch, err = archive.OpenDir(dir, relstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	live := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0))})
	defer live.Close()
	sn := arch.Snapshot()
	err = live.BuildFromSnapshot(sn)
	sn.Close()
	if err != nil {
		t.Fatal(err)
	}
	load(arch, loader.Options{Views: live}, lines(2))
	if n, _ := arch.Store().Count(archive.TInvocation); n != 4 {
		t.Fatalf("%d invocation rows, want 4", n)
	}
	if wfs := live.Workflows(); len(wfs) != 1 || wfs[0].Invocations != 4 {
		t.Fatalf("live views count %+v, want one workflow with 4 invocations", wfs)
	}
	requireViewsEqual(t, live, rebuiltFrom(t, arch))
}
