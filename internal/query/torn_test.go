package query

import (
	"bytes"
	"testing"

	"repro/internal/archive"
	"repro/internal/loader"
	"repro/internal/synth"
)

// TestNoTornReadsUnderLoad drives the sharded loader and a snapshot-pinned
// query traversal concurrently, then walks the hierarchy child-first
// (invocations → job instances → jobs → workflows): every parent a child
// references must resolve within the same snapshot. Without point-in-time
// reads this order races the loader — a child applied between two Selects
// would reference a parent the earlier Select never saw. Run with -race.
func TestNoTornReadsUnderLoad(t *testing.T) {
	tr := synth.Generate(synth.Config{Seed: 77, Jobs: 300, SubWorkflows: 3, Label: "torn"})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	a := archive.NewInMemoryN(4)
	l, err := loader.New(a, loader.Options{BatchSize: 8, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	loaded := make(chan error, 1)
	go func() {
		_, err := l.LoadReader(bytes.NewReader(buf.Bytes()))
		loaded <- err
	}()

	q := New(a)
	check := func() {
		sq, done := q.Snapshot()
		defer done()
		wfs, err := sq.Workflows()
		if err != nil {
			t.Fatal(err)
		}
		wfSet := make(map[int64]bool, len(wfs))
		for _, wf := range wfs {
			wfSet[wf.ID] = true
		}
		for _, wf := range wfs {
			if wf.ParentID != 0 && !wfSet[wf.ParentID] {
				t.Fatalf("workflow %d references parent %d absent from the snapshot", wf.ID, wf.ParentID)
			}
			jobs, err := sq.Jobs(wf.ID)
			if err != nil {
				t.Fatal(err)
			}
			instSet := make(map[int64]bool)
			for _, j := range jobs {
				insts, err := sq.JobInstances(j.ID)
				if err != nil {
					t.Fatal(err)
				}
				for _, inst := range insts {
					instSet[inst.ID] = true
					if inst.JobID != j.ID {
						t.Fatalf("instance %d claims job %d while listed under job %d", inst.ID, inst.JobID, j.ID)
					}
				}
			}
			invs, err := sq.Invocations(wf.ID)
			if err != nil {
				t.Fatal(err)
			}
			for _, inv := range invs {
				if inv.JobInstanceID != 0 && !instSet[inv.JobInstanceID] {
					t.Fatalf("invocation %d references job instance %d absent from the same snapshot",
						inv.ID, inv.JobInstanceID)
				}
				if !wfSet[inv.WfID] {
					t.Fatalf("invocation %d references workflow %d absent from the same snapshot", inv.ID, inv.WfID)
				}
			}
		}
	}

	done := false
	for !done {
		select {
		case err := <-loaded:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
		check()
	}
	check() // final, fully loaded state
}
