package bp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"
)

// Reader decodes a stream of BP log lines. Blank lines and lines starting
// with '#' are skipped, matching the behaviour of nl_load on log files
// that interleave comments with events.
type Reader struct {
	s       *bufio.Scanner
	line    int
	lenient bool
	pooled  bool
	skipped int
	last    []byte // raw bytes of the last line Read returned

	// Sampling hook (SetSampler): run on the raw line before the parse so
	// a sampled line's parse span has a true start time, while unsampled
	// lines skip the clock read entirely.
	sampler  func([]byte) uint64
	sampleID uint64
	sampleT0 int64

	// Ingest tap (SetTap): run on every content line before the parse,
	// malformed ones included, so an event log sees the stream exactly as
	// it arrived.
	tap func([]byte) error
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

// SetPooled makes Read return pool-recycled events (see the ownership
// rules in pool.go): each returned event must be handed to ReleaseEvent
// when the caller is done with it, or escaped with Clone. The loader
// turns this on; ReadAll callers, which retain every event, must not.
func (r *Reader) SetPooled(on bool) { r.pooled = on }

// Read returns the next event, or io.EOF at end of stream. In pooled mode
// (SetPooled) the caller owns the returned event and must release it.
func (r *Reader) Read() (*Event, error) {
	for r.s.Scan() {
		r.line++
		// Work on the scanner's byte view: Text() would copy every line
		// into a fresh string before the parser even starts.
		line := bytes.TrimSpace(r.s.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if r.tap != nil {
			if err := r.tap(line); err != nil {
				// A tap failure is a durability failure, not a data
				// problem: fatal even in lenient mode.
				return nil, fmt.Errorf("line %d: tap: %w", r.line, err)
			}
		}
		if r.sampler != nil {
			if r.sampleID = r.sampler(line); r.sampleID != 0 {
				r.sampleT0 = time.Now().UnixNano()
			}
		}
		ev, err := r.parse(line)
		if err != nil {
			if r.lenient {
				r.skipped++
				continue
			}
			return nil, fmt.Errorf("line %d: %w", r.line, err)
		}
		r.last = line
		return ev, nil
	}
	if err := r.s.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

func (r *Reader) parse(line []byte) (*Event, error) {
	if r.pooled {
		return ParseBytes(line)
	}
	e := &Event{}
	if err := e.parseLine(string(line)); err != nil {
		return nil, err
	}
	return e, nil
}

// Bytes returns the raw line of the most recent successful Read, valid
// only until the next Read (the scanner reuses its buffer).
func (r *Reader) Bytes() []byte { return r.last }

// SetSampler installs a function run on every raw line before it is
// parsed. A non-zero return marks the line sampled and records a
// pre-parse timestamp; LastSample exposes both after the Read. The hook
// keeps this package free of any tracing dependency while giving the
// loader a parse-span start that costs unsampled lines nothing but the
// hash.
func (r *Reader) SetSampler(fn func(line []byte) uint64) { r.sampler = fn }

// LastSample returns the sampler's id for the line of the most recent
// successful Read and the pre-parse clock reading taken for it. id is 0
// when the line was unsampled or no sampler is set.
func (r *Reader) LastSample() (id uint64, t0 int64) { return r.sampleID, r.sampleT0 }

// SetTap installs a function run on every content line (comments and
// blanks excluded, malformed lines included) before it is parsed. The
// loader uses it to append raw lines to the event log so the log, not
// the parsed stream, is the source of truth. The line buffer is only
// valid for the duration of the call. A tap error fails the Read even in
// lenient mode: lenient tolerates bad data, not a broken log.
func (r *Reader) SetTap(fn func(line []byte) error) { r.tap = fn }

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
