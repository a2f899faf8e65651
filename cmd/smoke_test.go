// Package cmd_test builds the deployment's binaries and drives them as an
// operator would: one loader writing a store directory, the report tools
// and a dashboard reading it, a replay materializing a second one from the
// event log — the live node, fed by both engines over TCP and watched over
// SSE, the doctor and the schema validator, the soak harness, and the
// paper's evaluation tables.
package cmd_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/eventlog"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/synth"
)

// binDir holds the binaries under test, built once for every test here.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "stampede-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	args := []string{"build", "-o", binDir + string(filepath.Separator)}
	for _, name := range []string{"nl-load", "stampede-statistics", "stampede-analyzer", "stampede-dashboard",
		"stampede-replay", "triana-run", "pegasus-run", "stampede-doctor", "stampede-schema", "stampede-soak",
		"experiments"} {
		args = append(args, "repro/cmd/"+name)
	}
	code := 1
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(binDir)
	os.Exit(code)
}

func tool(name string) string { return filepath.Join(binDir, name) }

// run executes one built binary to completion, in a scratch working
// directory, and returns its combined output, failing the test on a
// non-zero exit.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	c := exec.Command(bin, args...)
	c.Dir = t.TempDir()
	out, err := c.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// daemon starts a long-running binary and returns it with its stdout, line
// by line (closed at exit). The process is killed when the test ends, and
// its stderr logged if the test failed.
func daemon(t *testing.T, bin string, args ...string) (*exec.Cmd, <-chan string) {
	t.Helper()
	c := exec.Command(bin, args...)
	c.Dir = t.TempDir()
	var stderr bytes.Buffer
	c.Stderr = &stderr
	stdout, err := c.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Buffered so a daemon whose few lines nobody reads still exits.
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	t.Cleanup(func() {
		c.Process.Kill()
		c.Wait()
		if t.Failed() {
			t.Logf("%s stderr:\n%s", filepath.Base(bin), stderr.String())
		}
	})
	return c, lines
}

// nextLine returns a daemon's next stdout line, failing after ten seconds
// or at its exit.
func nextLine(t *testing.T, lines <-chan string) string {
	t.Helper()
	select {
	case line, ok := <-lines:
		if !ok {
			t.Fatal("the process exited")
		}
		return line
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for output")
	}
	return ""
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
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

// listed asks a dashboard for /api/workflows and returns the uuids it
// lists, or nil while the dashboard is not answering 200 yet.
func listed(base string) []string {
	resp, err := http.Get(base + "/api/workflows")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var wfs []struct{ UUID string }
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&wfs) != nil {
		return nil
	}
	uuids := make([]string, len(wfs))
	for i, wf := range wfs {
		uuids[i] = wf.UUID
	}
	return uuids
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

	// A second run appends to the directory, and the dashboard, reading it
	// once, serves both.
	run(t, tool("nl-load"), "-db", store, "-shards", "4", "-bundle-dir", "", log2)
	addr := freeAddr(t)
	daemon(t, tool("stampede-dashboard"), "-db", store, "-listen", addr)
	base := "http://" + addr
	waitFor(t, "the dashboard to list both runs", func() bool { return len(listed(base)) == 2*(1+3) })

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

// successWatch holds an SSE connection to a dashboard's broadcast stream
// and records when each workflow was first shown SUCCESS.
type successWatch struct {
	mu   sync.Mutex
	seen map[string]time.Time
}

// watchSuccess subscribes to base's /api/stream/workflows and returns once
// the snapshot has arrived, so every later change reaches the watch.
func watchSuccess(t *testing.T, base string) *successWatch {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/stream/workflows", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	w := &successWatch{seen: make(map[string]time.Time)}
	subscribed := make(chan struct{})
	go func() {
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
		var event string
		for sc.Scan() {
			line := sc.Text()
			if ev, ok := strings.CutPrefix(line, "event: "); ok {
				event = ev
				continue
			}
			data, ok := strings.CutPrefix(line, "data: ")
			switch {
			case !ok:
			case event == "snapshot":
				close(subscribed)
			case event == "delta":
				var d struct{ UUID, State string }
				if json.Unmarshal([]byte(data), &d) == nil && d.State == "SUCCESS" {
					w.mu.Lock()
					if _, ok := w.seen[d.UUID]; !ok {
						w.seen[d.UUID] = time.Now()
					}
					w.mu.Unlock()
				}
			}
		}
	}()
	select {
	case <-subscribed:
	case <-time.After(10 * time.Second):
		t.Fatal("no snapshot on the stream")
	}
	return w
}

// succeeded reports when the stream first showed wf SUCCESS.
func (w *successWatch) succeeded(wf string) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	at, ok := w.seen[wf]
	return at, ok
}

var workflowLine = regexp.MustCompile(`workflow ([0-9a-f-]{36}): `)

// workflowUUID is the run an engine binary reports on its last line.
func workflowUUID(t *testing.T, out string) string {
	t.Helper()
	m := workflowLine.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no workflow uuid in:\n%s", out)
	}
	return m[1]
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(b, []byte("\n"))
}

// TestBinariesLiveNode runs the deployment as one node: `nl-load -listen`
// takes both engines' events over TCP, an SSE client sees the DART run
// succeed as it happens, both of the node's listeners serve its one health
// engine and the doctor reads its bundle from either, and after SIGINT the
// node has loaded every line the engines logged into a store that reports
// exactly as a file load of those logs does.
func TestBinariesLiveNode(t *testing.T) {
	tmp := t.TempDir()
	nodeDB := filepath.Join(tmp, "node")
	node, out := daemon(t, tool("nl-load"), "-db", nodeDB, "-shards", "4",
		"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-bundle-dir", "")
	var busAddr, httpAddr, debugAddr string
	for busAddr == "" || httpAddr == "" || debugAddr == "" {
		line := nextLine(t, out)
		if a, ok := strings.CutPrefix(line, "dashboard on http://"); ok {
			httpAddr = a
		}
		if a, ok := strings.CutPrefix(line, "metrics, pprof and health on http://"); ok {
			debugAddr = a
		}
		if f := strings.Fields(line); len(f) > 2 && f[0] == "bus" && f[1] == "on" {
			busAddr = f[2]
		}
	}
	base := "http://" + httpAddr
	watch := watchSuccess(t, base)

	// The DART run's root workflow is SUCCESS on the glass within a second
	// of the engine exiting.
	dartLog := filepath.Join(tmp, "dart.bp.log")
	root := workflowUUID(t, run(t, tool("triana-run"), "-workflow", "dart", "-log", dartLog, "-broker", busAddr))
	exited := time.Now()
	for {
		if at, ok := watch.succeeded(root); ok {
			if lag := at.Sub(exited); lag > time.Second {
				t.Fatalf("root workflow %s shown SUCCESS %v after triana-run exited", root, lag)
			}
			t.Logf("root workflow SUCCESS on the stream %v after triana-run exited", at.Sub(exited))
			break
		}
		if time.Since(exited) > time.Second {
			t.Fatalf("root workflow %s not shown SUCCESS within 1s of triana-run exiting", root)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The other engine publishes into the same node.
	diamondLog := filepath.Join(tmp, "diamond.bp.log")
	diamond := workflowUUID(t, run(t, tool("pegasus-run"), "-dax", "diamond", "-log", diamondLog, "-broker", busAddr))
	waitFor(t, "the pegasus workflow on /api/workflows", func() bool {
		for _, wf := range listed(base) {
			if wf == diamond {
				return true
			}
		}
		return false
	})

	// -http and -debug-addr serve one engine: the same objectives, and the
	// bundle of one four-partition node; -debug-addr adds pprof.
	var objectives [2]string
	for i, addr := range []string{httpAddr, debugAddr} {
		base := "http://" + addr
		getOK(t, base+"/healthz", nil)
		getOK(t, base+"/readyz", nil)
		var alerts struct{ Objectives []struct{ Name string } }
		getOK(t, base+"/api/alerts", &alerts)
		objectives[i] = fmt.Sprint(alerts.Objectives)
		if doc := run(t, tool("stampede-doctor"), "-addr", addr); !strings.Contains(doc, "== diagnostics bundle ==") || !strings.Contains(doc, "4 partition(s)") {
			t.Fatalf("stampede-doctor -addr %s on the node:\n%s", addr, doc)
		}
	}
	if objectives[0] == "[]" || objectives[0] != objectives[1] {
		t.Fatalf("objectives on -http %s, on -debug-addr %s", objectives[0], objectives[1])
	}
	getOK(t, "http://"+debugAddr+"/metrics", nil)
	getOK(t, "http://"+debugAddr+"/debug/pprof/", nil)

	// Interrupted, the node drains the bus and reports every event.
	if err := node.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	var tail []string
	for line := range out {
		tail = append(tail, line)
	}
	if err := node.Wait(); err != nil {
		t.Fatalf("nl-load -listen after SIGINT: %v\n%s", err, strings.Join(tail, "\n"))
	}
	want := fmt.Sprintf("loaded %d events", countLines(t, dartLog)+countLines(t, diamondLog))
	if got := strings.Join(tail, "\n"); !strings.Contains(got, want) {
		t.Fatalf("nl-load -listen did not report %q:\n%s", want, got)
	}

	// Its store reports exactly as a file load of the engines' logs.
	fresh := filepath.Join(tmp, "fresh")
	run(t, tool("nl-load"), "-db", fresh, "-shards", "4", "-bundle-dir", "", dartLog, diamondLog)
	if live, file := run(t, tool("stampede-statistics"), "-db", nodeDB), run(t, tool("stampede-statistics"), "-db", fresh); live != file {
		t.Fatalf("stampede-statistics on the node's store:\n%s\non a file load of the same logs:\n%s", live, file)
	}

	for _, log := range []string{dartLog, diamondLog} {
		want := fmt.Sprintf("%d events checked, 0 invalid, 0 malformed lines", countLines(t, log))
		if out := run(t, tool("stampede-schema"), "-validate", log); !strings.Contains(out, want) {
			t.Fatalf("stampede-schema -validate %s:\n%s", filepath.Base(log), out)
		}
	}
}

// TestBinariesFailedRunKeepsItsLog: an engine whose workflow fails still
// flushes every event it logged before exiting with the failure status,
// so the log is valid, ends with the root workflow's end event, and loads
// into a store on which the analyzer names the job that failed.
func TestBinariesFailedRunKeepsItsLog(t *testing.T) {
	tmp := t.TempDir()
	failLog := filepath.Join(tmp, "fail.bp.log")
	out, code := runStatus(t, tool("pegasus-run"), "-dax", "sweep", "-tasks", "20", "-failure", "0.9", "-retries", "0", "-log", failLog)
	if code != 2 {
		t.Fatalf("pegasus-run on a failing workflow exited %d, want 2:\n%s", code, out)
	}
	root := workflowUUID(t, out)
	n := countLines(t, failLog)
	if want := fmt.Sprintf("%d events checked, 0 invalid, 0 malformed lines", n); n == 0 || !strings.Contains(run(t, tool("stampede-schema"), "-validate", failLog), want) {
		t.Fatalf("stampede-schema -validate on the failed run's %d-line log does not report %q", n, want)
	}
	b, err := os.ReadFile(failLog)
	if err != nil {
		t.Fatal(err)
	}
	var last *bp.Event
	failed := ""
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if last, err = bp.Parse(line); err != nil {
			t.Fatal(err)
		}
		if last.Type == schema.MainEnd && last.Get(schema.AttrStatus) == "-1" {
			failed = last.Get(schema.AttrJobID)
		}
	}
	if last.Type != schema.XwfEnd || last.Get(schema.AttrXwfID) != root {
		t.Fatalf("the failed run's log ends with %s, want the root workflow's %s", last.Format(), schema.XwfEnd)
	}
	if failed == "" {
		t.Fatal("the failed run's log records no failed job")
	}

	store := filepath.Join(tmp, "store")
	run(t, tool("nl-load"), "-db", store, "-bundle-dir", "", failLog)
	if out, code := runStatus(t, tool("stampede-analyzer"), "-db", store); code == 0 || !strings.Contains(out, "failed job "+failed+" ") {
		t.Fatalf("stampede-analyzer exited %d and does not name failed job %s:\n%s", code, failed, out)
	}
}

// runStatus is run for a binary whose exit status the test checks: it
// returns the combined output and the status, failing only when the
// binary could not be run.
func runStatus(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	c := exec.Command(bin, args...)
	c.Dir = t.TempDir()
	out, err := c.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%s %s: %v", filepath.Base(bin), strings.Join(args, " "), err)
	}
	return string(out), c.ProcessState.ExitCode()
}

// getOK fails the test unless a GET of url answers 200, and decodes the
// JSON body into v when v is not nil.
func getOK(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s", url, resp.Status)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
}

var reportCheck = regexp.MustCompile(`^\s*\[([^\]]*)\]`)

// TestBinariesSoak replays the steady scenario through stampede-soak,
// unpaced: it exits 0 and every check of its report is ok.
func TestBinariesSoak(t *testing.T) {
	scenario, err := filepath.Abs(filepath.Join("..", "examples", "scenarios", "steady.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := run(t, tool("stampede-soak"), "-scenario", scenario, "-duration", "2s", "-speedup", "0")
	checks := 0
	for _, line := range strings.Split(out, "\n") {
		if m := reportCheck.FindStringSubmatch(line); m != nil {
			checks++
			if strings.TrimSpace(m[1]) != "ok" {
				t.Errorf("soak check not ok: %s", line)
			}
		}
	}
	if checks == 0 || !strings.Contains(out, "PASS") {
		t.Fatalf("stampede-soak printed %d checks:\n%s", checks, out)
	}
}

// TestBinariesExperiments regenerates Table I and the cross-engine table:
// the DART run's tasks all succeed, none retried, and both engines' rows
// are printed.
func TestBinariesExperiments(t *testing.T) {
	out := run(t, tool("experiments"), "-run", "table1,crossengine")
	var header, tasks, engines bool
	for _, line := range strings.Split(out, "\n") {
		switch f := strings.Join(strings.Fields(line), " "); f {
		case "Type Succeeded Failed Incomplete Total Retries":
			header = true
		case "Tasks 367 0 0 367 0":
			tasks = true
		case "Pegasus Triana":
			engines = true
		}
	}
	if !header || !tasks || !engines || !strings.Contains(out, "Cross-engine demonstration") {
		t.Fatalf("Table I header %v, Tasks 367/0/0/367/0 %v, cross-engine table %v:\n%s", header, tasks, engines, out)
	}
}
