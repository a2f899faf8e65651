package bp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"
)

// Reader decodes a stream of BP log lines. Blank lines and lines starting
// with '#' are skipped, matching the behaviour of nl_load on log files
// that interleave comments with events.
type Reader struct {
	s       *bufio.Scanner
	line    int
	lenient bool
	skipped int
}

// NewReader wraps r for line-oriented BP decoding. The scanner buffer
// accepts individual lines up to 1 MiB, comfortably above any event the
// Stampede schema can produce.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Reader{s: s}
}

// SetLenient makes Read skip malformed lines instead of failing the
// stream. Production log directories routinely contain partial last lines
// from crashed writers; the loader turns this on and reports the skip
// count afterwards.
func (r *Reader) SetLenient(on bool) { r.lenient = on }

// Skipped reports how many malformed lines were dropped in lenient mode.
func (r *Reader) Skipped() int { return r.skipped }

// Line returns the next content line, trimmed, blank and '#' lines
// skipped, or io.EOF at end of stream. The bytes are the scanner's and are
// valid only until the next call; LineNo numbers the line. It is the
// reading half of Read, for a caller that parses (and taps, and samples)
// lines itself.
func (r *Reader) Line() ([]byte, error) {
	for r.s.Scan() {
		r.line++
		// Work on the scanner's byte view: Text() would copy every line
		// into a fresh string before the parser even starts.
		line := bytes.TrimSpace(r.s.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		return line, nil
	}
	if err := r.s.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// LineNo returns the number of the line Line last returned, counting from 1
// over every line of the stream.
func (r *Reader) LineNo() int { return r.line }

// Read returns the next event, or io.EOF at end of stream.
func (r *Reader) Read() (*Event, error) {
	for {
		line, err := r.Line()
		if err != nil {
			return nil, err
		}
		e := &Event{}
		if err := e.parseLine(string(line)); err != nil {
			if r.lenient {
				r.skipped++
				continue
			}
			return nil, fmt.Errorf("line %d: %w", r.line, err)
		}
		return e, nil
	}
}

// Appender receives the Stampede events an engine's log normalizer
// produces (triana.StampedeLog, pegasus.Monitord) and delivers them
// somewhere: a BP log file for later loading, or the message bus for
// real-time processing — the two paths of the paper's Figure 5 ("recorded
// to either a file for later evaluation, or posted directly to an AMQP
// queue").
type Appender interface {
	Append(ev *Event) error
}

// Writer encodes events as BP lines to an io.Writer. It is safe for use by
// multiple goroutines: engines log from many worker threads into one file,
// exactly as Triana's LOG4J appenders do.
type Writer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	n   int
	buf []byte // the line being encoded; reused under mu
}

// NewWriter wraps w for BP encoding.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64*1024)}
}

// Write appends one event as a line. The line is encoded into scratch the
// writer keeps, so a steady stream of events allocates nothing.
func (w *Writer) Write(e *Event) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(e.AppendFormat(w.buf[:0]), '\n')
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count returns the number of events written.
func (w *Writer) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Flush forces buffered lines to the underlying writer.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.w.Flush()
}
