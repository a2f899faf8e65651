package loader_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/eventlog"
	"repro/internal/experiments"
	"repro/internal/loader"
	"repro/internal/mq"
)

// tapStream is a trace with hostile lines interleaved: the tap contract
// is that every content line reaches the log — malformed ones included —
// while comments and blanks (file path only) do not.
func tapStream(t *testing.T) []byte {
	t.Helper()
	trace := experiments.TraceFor(200)
	var b bytes.Buffer
	b.WriteString("# comment header, never tapped\n\n")
	lines := bytes.Split(bytes.TrimRight(trace, "\n"), []byte("\n"))
	for i, ln := range lines {
		b.Write(ln)
		b.WriteByte('\n')
		if i%17 == 0 {
			fmt.Fprintf(&b, "garbage line %d with no equals signs\n", i)
		}
	}
	return b.Bytes()
}

// countContent counts content lines (non-blank, non-comment) in a stream.
func countContent(stream []byte) uint64 {
	n := uint64(0)
	for _, ln := range bytes.Split(stream, []byte("\n")) {
		trimmed := bytes.TrimSpace(ln)
		if len(trimmed) == 0 || trimmed[0] == '#' {
			continue
		}
		n++
	}
	return n
}

// runTapped loads a stream through the given loader configuration with
// an eventlog tap attached, via LoadReader or Consume, and returns the
// stats plus the log.
func runTapped(t *testing.T, shards int, consume bool, stream []byte) (loader.Stats, *eventlog.Log) {
	t.Helper()
	lg, err := eventlog.Open(t.TempDir(), eventlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	arch := archive.NewInMemoryN(shards)
	t.Cleanup(func() { arch.Close() })
	ld, err := loader.New(arch, loader.Options{
		Shards:  shards,
		Lenient: true,
		Tap: func(line []byte) error {
			_, terr := lg.Append(line)
			return terr
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var st loader.Stats
	if consume {
		msgs := make(chan mq.Message, 64)
		go func() {
			defer close(msgs)
			for _, ln := range bytes.Split(stream, []byte("\n")) {
				trimmed := bytes.TrimSpace(ln)
				if len(trimmed) == 0 || trimmed[0] == '#' {
					continue // the broker never carries comments
				}
				msgs <- mq.Message{Body: append([]byte(nil), trimmed...), TS: time.Now()}
			}
		}()
		st, err = ld.Consume(context.Background(), msgs)
	} else {
		st, err = ld.LoadReader(bytes.NewReader(stream))
	}
	if err != nil {
		t.Fatal(err)
	}
	return st, lg
}

// TestTapSeesEveryIngestPath: on both ingest paths (reader and consume)
// the log receives exactly read+malformed records, with malformed lines
// preserved verbatim.
func TestTapSeesEveryIngestPath(t *testing.T) {
	stream := tapStream(t)
	want := countContent(stream)
	for _, tc := range []struct {
		name    string
		shards  int
		consume bool
	}{
		{"reader-sharded", 4, false},
		{"consume-sharded", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, lg := runTapped(t, tc.shards, tc.consume, stream)
			if st.Malformed == 0 {
				t.Fatal("stream should contain malformed lines")
			}
			if got := lg.Appends(); got != st.Read+st.Malformed {
				t.Fatalf("log got %d records, loader read %d + malformed %d",
					got, st.Read, st.Malformed)
			}
			if got := lg.Appends(); got != want {
				t.Fatalf("log got %d records, stream has %d content lines", got, want)
			}
		})
	}
}

// TestTapPreservesContentOrderAndBytes: on the reader path the log is byte-for-byte the content lines of the input, in order.
func TestTapPreservesContentOrderAndBytes(t *testing.T) {
	stream := tapStream(t)
	_, lg := runTapped(t, 1, false, stream)
	cur, err := lg.Cursor(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	var wantLines [][]byte
	for _, ln := range bytes.Split(stream, []byte("\n")) {
		trimmed := bytes.TrimSpace(ln)
		if len(trimmed) == 0 || trimmed[0] == '#' {
			continue
		}
		wantLines = append(wantLines, trimmed)
	}
	for {
		rec, err := cur.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(wantLines) || !bytes.Equal(rec.Line, wantLines[i]) {
			t.Fatalf("record %d diverges from input line: %q", i, rec.Line)
		}
		i++
	}
	if i != len(wantLines) {
		t.Fatalf("log holds %d records, input had %d content lines", i, len(wantLines))
	}
}

// TestTapErrorFailsLoadEvenLenient: a failing tap is a durability
// failure and must abort the load on every path, lenient mode included.
func TestTapErrorFailsLoadEvenLenient(t *testing.T) {
	tapErr := errors.New("disk full")
	for _, shards := range []int{1, 4} {
		for _, consume := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d consume=%v", shards, consume)
			arch := archive.NewInMemoryN(shards)
			ld, err := loader.New(arch, loader.Options{
				Shards:  shards,
				Lenient: true,
				Tap: func(line []byte) error {
					return tapErr
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if consume {
				msgs := make(chan mq.Message, 4)
				msgs <- mq.Message{Body: []byte("ts=2012-11-10T00:00:00.000001Z event=stampede.xwf.start")}
				close(msgs)
				_, err = ld.Consume(context.Background(), msgs)
			} else {
				_, err = ld.LoadReader(strings.NewReader("ts=2012-11-10T00:00:00.000001Z event=stampede.xwf.start\n"))
			}
			if err == nil || !errors.Is(err, tapErr) {
				t.Fatalf("%s: load with failing tap returned %v, want the tap error", name, err)
			}
			arch.Close()
		}
	}
}
