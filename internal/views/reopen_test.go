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

// invLine is a complete stampede.inv.end line of instance (j, 1) of
// workflow wf, sec seconds after t0, numbered id, or without inv.id — an
// event the schema refuses — when id is negative.
func invLine(wf string, t0 time.Time, sec int, id int64) string {
	ts := t0.Add(time.Duration(sec) * time.Second)
	ev := bp.New(schema.InvEnd, ts).Set(schema.AttrXwfID, wf).
		Set(schema.AttrJobID, "j").SetInt(schema.AttrJobInstID, 1).
		Set(schema.AttrStartTime, ts.Format(bp.TimeFormat)).SetFloat(schema.AttrDur, 1).
		SetInt(schema.AttrExitcode, 0).Set(schema.AttrTransform, "x")
	if id >= 0 {
		ev.SetInt(schema.AttrInvID, id)
	}
	return ev.Format() + "\n"
}

// TestIDlessInvocationsAcrossReopen: an inv.end without inv.id is refused
// and counted Invalid, before a restart and after it, and reaches neither
// the store nor the views; the numbered invocations around it count once
// each in the reopened archive, in the live views and in views rebuilt from
// its snapshot.
func TestIDlessInvocationsAcrossReopen(t *testing.T) {
	t0 := time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC)
	const wf = "0f6c2b1e-8d3a-4e5f-9a7b-1c2d3e4f5a6b"
	lines := func(from int) string {
		return invLine(wf, t0, from, int64(from)) + invLine(wf, t0, from+1, -1) + invLine(wf, t0, from+1, int64(from+1))
	}
	dir := t.TempDir()
	load := func(arch *archive.Archive, opts loader.Options, text string) {
		t.Helper()
		opts.Lenient = true
		ld, err := loader.New(arch, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := ld.LoadReader(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		if st.Loaded != 2 || st.Invalid != 1 {
			t.Fatalf("%s; want the two numbered invocations loaded and the id-less one invalid", st.String())
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

// TestInvocationNumberingIgnoresReopen: two invocations of one instance,
// then a re-emission of the first (a restart's), count twice in the live
// views, in one session and with a reopen before the second or the third
// alike, and the live views equal views rebuilt from the store.
func TestInvocationNumberingIgnoresReopen(t *testing.T) {
	t0 := time.Date(2012, 3, 13, 12, 0, 0, 0, time.UTC)
	const wf = "7a8b9c0d-1e2f-4a3b-8c4d-5e6f7a8b9c0d"
	for _, first := range []int64{1, 0} {
		lines := []string{invLine(wf, t0, 0, first), invLine(wf, t0, 1, 1-first), invLine(wf, t0, 2, first)}
		for reopenAt := 0; reopenAt < len(lines); reopenAt++ { // 0: no reopen
			dir := t.TempDir()
			arch, err := archive.OpenDir(dir, relstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			live := views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0))})
			load := func(text string) {
				t.Helper()
				ld, err := loader.New(arch, loader.Options{Views: live})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ld.LoadReader(strings.NewReader(text)); err != nil {
					t.Fatal(err)
				}
			}
			for i, ln := range lines {
				if i > 0 && i == reopenAt {
					live.Close()
					if err := arch.Close(); err != nil {
						t.Fatal(err)
					}
					if arch, err = archive.OpenDir(dir, relstore.Options{}); err != nil {
						t.Fatal(err)
					}
					live = views.New(views.Options{Clock: wfclock.NewManual(time.Unix(0, 0))})
					sn := arch.Snapshot()
					err = live.BuildFromSnapshot(sn)
					sn.Close()
					if err != nil {
						t.Fatal(err)
					}
				}
				load(ln)
			}
			if wfs := live.Workflows(); len(wfs) != 1 || wfs[0].Invocations != 2 {
				t.Errorf("inv.id=%d first, reopen before event %d: live views count %+v, want one workflow with 2 invocations", first, reopenAt, wfs)
			}
			requireViewsEqual(t, live, rebuiltFrom(t, arch))
			live.Close()
			if err := arch.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
