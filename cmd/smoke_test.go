// Package cmd_test builds the deployment's binaries and drives them as an
// operator would: one loader writing a store directory, the report tools
// and a following dashboard reading it, a replay materializing a second
// one from the event log.
package cmd_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/eventlog"
	"repro/internal/relstore"
	"repro/internal/synth"
)

// run executes one built binary to completion and returns its combined
// output, failing the test on a non-zero exit.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// writeTrace renders a synthetic hierarchical workflow run as a BP log
// file and returns the trace.
func writeTrace(t *testing.T, path string, seed int64) *synth.Trace {
	t.Helper()
	tr := synth.Generate(synth.Config{Seed: seed, Jobs: 40, SubWorkflows: 3})
	var b bytes.Buffer
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return tr
}

// listedWorkflows asks a dashboard for /api/workflows and returns how many
// it lists, or -1 while the dashboard is not answering 200 yet.
func listedWorkflows(base string) int {
	resp, err := http.Get(base + "/api/workflows")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var wfs []json.RawMessage
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&wfs) != nil {
		return -1
	}
	return len(wfs)
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestBinariesOverOneStoreDirectory(t *testing.T) {
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "bin")
	tools := []string{"nl-load", "stampede-statistics", "stampede-analyzer", "stampede-dashboard", "stampede-replay"}
	buildArgs := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, name := range tools {
		buildArgs = append(buildArgs, "repro/cmd/"+name)
	}
	if out, err := exec.Command("go", buildArgs...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	tool := func(name string) string { return filepath.Join(bin, name) }

	store := filepath.Join(tmp, "store")
	log1, log2 := filepath.Join(tmp, "run1.bp.log"), filepath.Join(tmp, "run2.bp.log")
	tr1 := writeTrace(t, log1, 1)
	tr2 := writeTrace(t, log2, 2)

	// The loader creates the directory, one partition per shard.
	out := run(t, tool("nl-load"), "-db", store, "-shards", "4", "-bundle-dir", "", log1)
	if want := fmt.Sprintf("loaded %d events", len(tr1.Events)); !strings.Contains(out, want) {
		t.Fatalf("nl-load did not report %q:\n%s", want, out)
	}
	if info, err := relstore.InspectDir(store); err != nil || info.Partitions != 4 {
		t.Fatalf("store directory after nl-load -shards 4: %+v, %v", info, err)
	}

	// stampede-replay -info hops the WAL's frame headers; its per-partition
	// tail counts must sum to the frames on disk, counted here from the
	// documented layout | len u32 | seq u64 | payload | crc32c u32 |.
	var onDisk, reported uint64
	segs, _ := filepath.Glob(filepath.Join(store, "p*", "wal-*.log"))
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for len(b) >= 16 {
			b = b[16+binary.LittleEndian.Uint32(b):]
			onDisk++
		}
	}
	out = run(t, tool("stampede-replay"), "-store", store, "-info")
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 6 && strings.HasPrefix(f[0], "p0") {
			n, err := strconv.ParseUint(f[4], 10, 64)
			if err != nil {
				t.Fatalf("stampede-replay -info row %q: %v", line, err)
			}
			reported += n
		}
	}
	if onDisk == 0 || reported != onDisk {
		t.Fatalf("stampede-replay -info reports %d tail records, the WAL segments hold %d frames:\n%s", reported, onDisk, out)
	}

	// The report tools read it without opening it for writing.
	for _, name := range []string{"stampede-statistics", "stampede-analyzer"} {
		if out := run(t, tool(name), "-db", store); !strings.Contains(out, tr1.RootUUID) {
			t.Fatalf("%s did not name workflow %s:\n%s", name, tr1.RootUUID, out)
		}
	}

	// A following dashboard serves the directory while a second loader
	// run appends to it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var dashErr bytes.Buffer
	dash := exec.Command(tool("stampede-dashboard"), "-db", store, "-listen", addr, "-follow", "50ms", "-bundle-dir", "")
	dash.Stderr = &dashErr
	if err := dash.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		dash.Process.Kill()
		dash.Wait()
		if t.Failed() {
			t.Logf("dashboard stderr:\n%s", dashErr.String())
		}
	}()
	base := "http://" + addr
	waitFor(t, "the dashboard to answer /api/workflows", func() bool { return listedWorkflows(base) > 0 })
	before := listedWorkflows(base)

	run(t, tool("nl-load"), "-db", store, "-shards", "4", "-bundle-dir", "", log2)
	waitFor(t, "the dashboard to pick up the second load", func() bool { return listedWorkflows(base) > before })

	// Neither the readers nor the second writer left the directory in a
	// state a writer cannot recover.
	if out := run(t, tool("stampede-statistics"), "-db", store); !strings.Contains(out, tr1.RootUUID) || !strings.Contains(out, tr2.RootUUID) {
		t.Fatalf("stampede-statistics after the second load lost a workflow:\n%s", out)
	}
	arch, err := archive.OpenDir(store, relstore.Options{})
	if err != nil {
		t.Fatalf("store directory does not reopen for writing: %v", err)
	}
	if n, _ := arch.Store().Count(archive.TWorkflow); n != 2*(1+3) {
		t.Fatalf("reopened store holds %d workflows, want %d", n, 2*(1+3))
	}
	arch.Close()

	// A file where the directory should be is refused with a pointer to
	// the way out.
	refused, err := exec.Command(tool("stampede-statistics"), "-db", log1).CombinedOutput()
	if err == nil || !strings.Contains(string(refused), "stampede-replay -out") {
		t.Fatalf("stampede-statistics -db <file>: err %v, output:\n%s", err, refused)
	}

	// So is a directory from before the WAL went binary.
	v1 := filepath.Join(tmp, "v1store")
	if err := os.MkdirAll(v1, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(v1, "MANIFEST"), []byte(`{"version":1,"partitions":4}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	refused, err = exec.Command(tool("stampede-statistics"), "-db", v1).CombinedOutput()
	if err == nil || !strings.Contains(string(refused), "MANIFEST version 1") || !strings.Contains(string(refused), "stampede-replay -out") {
		t.Fatalf("stampede-statistics -db <version 1 directory>: err %v, output:\n%s", err, refused)
	}

	// Replay from an event log into a second store directory.
	evlog := filepath.Join(tmp, "eventlog")
	lg, err := eventlog.Open(evlog, eventlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lines, _ := os.ReadFile(log1)
	for _, line := range bytes.Split(bytes.TrimSpace(lines), []byte("\n")) {
		if _, err := lg.Append(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	store2 := filepath.Join(tmp, "store2")
	if out := run(t, tool("stampede-replay"), "-dir", evlog, "-out", store2, "-verify"); !strings.Contains(out, "verify ok") {
		t.Fatalf("stampede-replay -verify:\n%s", out)
	}
	if out := run(t, tool("stampede-statistics"), "-db", store2); !strings.Contains(out, tr1.RootUUID) {
		t.Fatalf("replayed store does not hold workflow %s:\n%s", tr1.RootUUID, out)
	}
}
