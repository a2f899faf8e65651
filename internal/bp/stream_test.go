package bp

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestReaderSkipsBlanksAndComments(t *testing.T) {
	in := strings.Join([]string{
		"# header comment",
		"",
		"ts=2012-03-13T12:35:38.000000Z event=a",
		"   ",
		"# another",
		"ts=2012-03-13T12:35:39.000000Z event=b",
	}, "\n")
	r := NewReader(strings.NewReader(in))
	evs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Type != "a" || evs[1].Type != "b" {
		t.Fatalf("got %d events", len(evs))
	}
}

func TestReaderStrictFailsWithLineNumber(t *testing.T) {
	in := "ts=2012-03-13T12:35:38.000000Z event=a\ngarbage line\n"
	r := NewReader(strings.NewReader(in))
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Read()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line 2 mention", err)
	}
}

func TestReaderLenientSkips(t *testing.T) {
	in := "garbage\nts=2012-03-13T12:35:38.000000Z event=a\nmore garbage\n"
	r := NewReader(strings.NewReader(in))
	r.SetLenient(true)
	evs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || r.Skipped() != 2 {
		t.Fatalf("events=%d skipped=%d", len(evs), r.Skipped())
	}
}

func TestWriterReaderPipeline(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	base := time.Date(2012, 3, 13, 12, 35, 38, 0, time.UTC)
	const n = 100
	for i := 0; i < n; i++ {
		e := New("stampede.inv.end", base.Add(time.Duration(i)*time.Second)).
			SetInt("inv.id", int64(i)).
			Set("stdout", "line one\nline two")
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != n {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	evs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != n {
		t.Fatalf("read %d events, want %d", len(evs), n)
	}
	if got := evs[42].Get("stdout"); got != "line one\nline two" {
		t.Fatalf("multiline value corrupted: %q", got)
	}
}

func TestWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e := New("x", time.Unix(int64(i), 0)).SetInt("g", int64(g))
				if err := w.Write(e); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("interleaved writes corrupted stream: %v", err)
	}
	if len(evs) != workers*per {
		t.Fatalf("got %d events, want %d", len(evs), workers*per)
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestReaderLongLine(t *testing.T) {
	long := strings.Repeat("x", 200_000)
	in := "ts=2012-03-13T12:35:38.000000Z event=a payload=" + long + "\n"
	evs, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || len(evs[0].Get("payload")) != 200_000 {
		t.Fatal("long line mangled")
	}
}

// ReadAll drains the stream into a slice. It stops at the first error in
// strict mode.
func (r *Reader) ReadAll() ([]*Event, error) {
	var out []*Event
	for {
		ev, err := r.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, ev)
	}
}
