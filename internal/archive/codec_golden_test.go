package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/relstore"
)

// goldenRows is two rows of every Fig. 3 table, in dependency order: one
// with every column set and one with every nullable column NULL, so each
// column type is stored both ways. Among the values: a zoned time (stored
// as its UTC instant), a time before 1970 (a negative UnixNano word), a
// negative int, a float that needs 17 significant digits, an empty string
// and a non-ASCII one.
func goldenRows() []goldenRow {
	zoned := time.Date(2012, 3, 13, 14, 35, 38, 123456789, time.FixedZone("CEST", 2*3600))
	early := time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC)
	return []goldenRow{
		{TWorkflow, vals{"wf_uuid": "ea17e8ac-02ac-4909-b5e3-16e367392556", "timestamp": early}},
		{TWorkflow, vals{"wf_uuid": "7c7e3d2a-0000-4000-8000-00000000beef", "dax_label": "dart", "dax_version": "3.4",
			"dax_file": "dart.dax", "dag_file_name": "dart-0.dag", "timestamp": zoned, "submit_hostname": "desktop",
			"submit_dir": "/run/0001", "planner_arguments": "--dax dart.dax -v", "user": "wfüser",
			"planner_version": "4.0.1", "root_wf_uuid": "ea17e8ac-02ac-4909-b5e3-16e367392556", "parent_wf_id": int64(1)}},
		{TWorkflowState, vals{"wf_id": int64(1), "state": WFStateStarted, "timestamp": zoned, "restart_count": int64(0)}},
		{TWorkflowState, vals{"wf_id": int64(2), "state": WFStateTerminated, "timestamp": zoned, "restart_count": int64(2), "status": int64(-1)}},
		{THost, vals{"site": "local", "hostname": "node1", "ip": "10.0.0.1"}},
		{THost, vals{"site": "cloud", "hostname": "node2", "ip": "10.0.0.2", "uname": "Linux 3.2 x86_64", "total_memory": int64(1 << 34)}},
		{TJob, vals{"wf_id": int64(1), "exec_job_id": "stage_in"}},
		{TJob, vals{"wf_id": int64(2), "exec_job_id": "exec_j1", "type_desc": "compute", "clustered": true,
			"max_retries": int64(3), "executable": "/bin/exec", "argv": "", "task_count": int64(1)}},
		{TJob, vals{"wf_id": int64(2), "exec_job_id": "exec_j2", "clustered": false}},
		{TTask, vals{"wf_id": int64(1), "abs_task_id": "t_stage"}},
		{TTask, vals{"wf_id": int64(2), "abs_task_id": "t_exec", "type_desc": "compute", "transformation": "exec",
			"argv": "-n 4", "job_id": int64(2)}},
		{TTaskEdge, vals{"wf_id": int64(2), "parent_abs_task_id": "t_stage", "child_abs_task_id": "t_exec"}},
		{TJobEdge, vals{"wf_id": int64(2), "parent_exec_job_id": "stage_in", "child_exec_job_id": "exec_j1"}},
		{TJobInstance, vals{"job_id": int64(1), "job_submit_seq": int64(1)}},
		{TJobInstance, vals{"job_id": int64(2), "job_submit_seq": int64(1), "host_id": int64(2), "site": "cloud",
			"user": "alice", "subwf_uuid": "7c7e3d2a-0000-4000-8000-00000000beef", "stdout_file": "j.out",
			"stdout_text": "ok\n", "stderr_file": "j.err", "stderr_text": "java.lang.NullPointerException",
			"multiplier_factor": int64(1), "exitcode": int64(-9), "local_duration": 0.1 + 0.2}},
		{TJobState, vals{"job_instance_id": int64(2), "state": JSExecute, "timestamp": zoned, "jobstate_submit_seq": int64(0)}},
		{TInvocation, vals{"job_instance_id": int64(1), "wf_id": int64(1), "task_submit_seq": int64(1)}},
		{TInvocation, vals{"job_instance_id": int64(2), "wf_id": int64(2), "task_submit_seq": int64(-1),
			"start_time": zoned, "remote_duration": 74.25, "remote_cpu_time": 1e-7, "exitcode": int64(137),
			"transformation": "dart-exec", "executable": "/bin/exec", "argv": "a b", "abs_task_id": "t_exec"}},
	}
}

// goldenUpdates rewrite columns of rows goldenRows inserted; each is logged
// as the row's full new version.
func goldenUpdates() []goldenRow {
	return []goldenRow{
		{TJobInstance, vals{"id": int64(1), "exitcode": int64(1), "local_duration": 3.0000000000000004, "site": "local"}},
		{TWorkflow, vals{"id": int64(2), "parent_wf_id": nil, "dax_label": "replanned"}},
	}
}

type vals map[string]any

type goldenRow struct {
	table string
	vals  vals
}

// set puts v's named columns into d through each column's typed setter.
func (v vals) set(t *testing.T, d *relstore.Draft, lay *relstore.Layout) {
	t.Helper()
	for name, val := range v {
		if name == "id" {
			continue
		}
		c, err := lay.Col(name)
		if err != nil {
			t.Fatal(err)
		}
		switch x := val.(type) {
		case nil:
			d.SetNull(c)
		case int64:
			d.SetInt(c, x)
		case float64:
			d.SetFloat(c, x)
		case string:
			d.SetStr(c, x)
		case bool:
			d.SetBool(c, x)
		case time.Time:
			d.SetTime(c, x)
		default:
			t.Fatalf("%s: no setter for a %T", name, val)
		}
	}
}

func goldenInsert(t *testing.T, s *relstore.Store, r goldenRow) {
	t.Helper()
	lay := s.Layout(r.table)
	d := s.Writer(0).NewRow(lay)
	r.vals.set(t, &d, lay)
	if _, err := s.Writer(0).Insert(&d); err != nil {
		t.Fatalf("insert into %s: %v", r.table, err)
	}
}

func goldenUpdate(t *testing.T, s *relstore.Store, r goldenRow) {
	t.Helper()
	lay := s.Layout(r.table)
	d := s.Writer(0).Edit(lay, r.vals["id"].(int64))
	r.vals.set(t, &d, lay)
	if err := s.Writer(0).Update(&d); err != nil {
		t.Fatalf("update %s: %v", r.table, err)
	}
}

// TestRowCodecGolden pins every byte a stored row turns into. The lines of
// testdata/row_codec.golden were written by the map-based row codec (the
// commit before rows became slot records, 3a124ea): the payload of each insert and
// update frame the rows above put in the WAL (the compact spelling), the
// body of the checkpoint image taken after them (the non-compact spelling,
// which is also what Snapshot.Hash digests) and that hash. A row codec
// that agrees with all three reads and writes the same files.
func TestRowCodecGolden(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	a, err := OpenDir(dir, relstore.Options{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, r := range goldenRows() {
		goldenInsert(t, a.Store(), r)
	}
	for _, r := range goldenUpdates() {
		goldenUpdate(t, a.Store(), r)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}

	var got []string
	pdir := filepath.Join(dir, "p000")
	seg, err := os.ReadFile(filepath.Join(pdir, "wal-00000000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	// | len u32 | seq u64 | payload | crc32c u32 |; create frames carry a
	// schema, not a row, and are skipped.
	for len(seg) > 0 {
		n := int(binary.LittleEndian.Uint32(seg))
		payload := seg[12 : 12+n]
		if op := payload[0]; op == 'i' || op == 'u' {
			got = append(got, fmt.Sprintf("wal %c %s", op, hex.EncodeToString(payload)))
		}
		seg = seg[12+n+4:]
	}

	sn := a.Snapshot()
	hash, err := sn.Hash()
	sn.Close()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, "hash "+hash)

	// A read-only load replays those frames to the same state.
	ro, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sn = ro.Snapshot()
	replayed, err := sn.Hash()
	sn.Close()
	if err != nil || replayed != hash {
		t.Fatalf("WAL replay hash %s (%v), want %s", replayed, err, hash)
	}

	if err := a.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	images, err := filepath.Glob(filepath.Join(pdir, "checkpoint-*.ck"))
	if err != nil || len(images) != 1 {
		t.Fatalf("checkpoint images: %v, %v", images, err)
	}
	img, err := os.ReadFile(images[0])
	if err != nil {
		t.Fatal(err)
	}
	// One JSON header line, the canonical state, a SHA-256 footer.
	body := img[bytes.IndexByte(img, '\n')+1 : len(img)-sha256.Size]
	got = append(got, "ck "+hex.EncodeToString(body))

	golden, err := os.ReadFile(filepath.Join("testdata", "row_codec.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, this codec wrote %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d differs from the bytes the map codec wrote:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}

	// And it reads them back: the directory reopens to the same hash.
	a.Close()
	b, err := OpenDir(dir, relstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sn = b.Snapshot()
	defer sn.Close()
	if reopened, err := sn.Hash(); err != nil || reopened != hash {
		t.Fatalf("reopened hash %s (%v), want %s", reopened, err, hash)
	}
}
