package archive_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/query"
	"repro/internal/relstore"
)

// testdata/parent-archive is a store the archive wrote while relstore
// still kept unique and foreign keys and the archive declared 14 indexes:
// archive.OpenDir with 2 partitions, fed the first parentArchivePrefix
// lines of testdata/parent-archive.bp.log (`pegasus-run -dax diamond
// -failure 0.3 -retries 2 -seed 2`: 3 retries, the workflow routed to
// partition 1, hosts in partition 0), checkpointed after line 45 and
// closed, so each partition is an image plus a WAL tail. Its schemas still
// carry those keys and indexes. parentArchiveHash is the Snapshot.Hash
// that archive recorded for it.
const (
	parentArchiveHash   = "a37c90322a29800781a3d0178deabaeddfef545941721aeb307855dbe29bb815"
	parentArchivePrefix = 90
)

func logLines(t *testing.T, path string) [][]byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	return lines
}

func apply(t *testing.T, a *archive.Archive, lines [][]byte) {
	t.Helper()
	for i, ln := range lines {
		ev, err := bp.ParseBytes(ln)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Apply(ev); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
	}
}

// check fails t unless a hashes to want and passes the integrity check.
func check(t *testing.T, what string, a *archive.Archive, want string) {
	t.Helper()
	sn := a.Snapshot()
	defer sn.Close()
	if got, err := sn.Hash(); err != nil || got != want {
		t.Fatalf("%s: hash %s (%v), want %s", what, got, err, want)
	}
	if err := archive.CheckIntegrity(sn); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
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

// answers renders everything the query interface says about a store,
// workflow by workflow, job by job, instance by instance.
func answers(t *testing.T, a *archive.Archive) string {
	t.Helper()
	q, done := query.New(a).Snapshot()
	defer done()
	var b strings.Builder
	say := func(v any, err error) {
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%+v\n", v)
	}
	wfs, err := q.Workflows()
	say(wfs, err)
	for _, wf := range wfs {
		say(q.WorkflowByUUID(wf.UUID))
		say(q.SubWorkflows(wf.ID))
		say(q.WorkflowStates(wf.ID))
		say(q.Walltime(wf.ID))
		say(q.Tasks(wf.ID))
		say(q.Invocations(wf.ID))
		jobs, err := q.Jobs(wf.ID)
		say(jobs, err)
		for _, j := range jobs {
			insts, err := q.JobInstances(j.ID)
			say(insts, err)
			for _, in := range insts {
				say(q.JobStates(in.ID))
				say(q.InvocationsForInstance(in.ID))
			}
		}
	}
	return b.String()
}

func files(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		out[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParentArchiveOpens: a store the previous archive wrote opens as it
// was. LoadDir (writing nothing) and OpenDir reproduce its hash; the query
// interface answers over it exactly as over a fresh load of the same
// lines; and appending the rest of the log lands on the hash of a one-shot
// load of the whole log.
func TestParentArchiveOpens(t *testing.T) {
	lines := logLines(t, filepath.Join("testdata", "parent-archive.bp.log"))
	src := filepath.Join("testdata", "parent-archive")
	before := files(t, src)

	ro, err := archive.LoadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	check(t, "LoadDir", ro, parentArchiveHash)
	if fmt.Sprint(files(t, src)) != fmt.Sprint(before) {
		t.Fatal("LoadDir changed the fixture directory")
	}
	prefix := archive.NewInMemoryN(2)
	apply(t, prefix, lines[:parentArchivePrefix])
	check(t, "fresh load of the same lines", prefix, parentArchiveHash)
	if got, want := answers(t, ro), answers(t, prefix); got != want {
		t.Fatalf("the query interface over the parent's store answers\n%s\nover a fresh load\n%s", got, want)
	}

	whole := archive.NewInMemory()
	apply(t, whole, lines)
	want := hashOf(t, whole)
	dir := filepath.Join(t.TempDir(), "store")
	for path, body := range before {
		to := filepath.Join(dir, strings.TrimPrefix(path, src))
		if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rw, err := archive.OpenDir(dir, relstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "OpenDir", rw, parentArchiveHash)
	apply(t, rw, lines[parentArchivePrefix:])
	check(t, "the rest of the log appended", rw, want)
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := archive.OpenDir(dir, relstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(t, "reopened after the append", re, want)
}
