// Package bp implements the NetLogger "Logging Best Practices" (BP) log
// format used by Stampede for every monitoring message.
//
// A BP message is a single line of space-separated key=value pairs, e.g.
//
//	ts=2012-03-13T12:35:38.000000Z event=stampede.xwf.start level=Info \
//	    xwf.id=ea17e8ac-02ac-4909-b5e3-16e367392556 restart_count=0
//
// Two attributes are special: "ts", an ISO 8601 timestamp (or seconds
// since the epoch), and "event", a dot-separated hierarchical type name
// that the message bus routes on. Values containing spaces, quotes or '='
// are double-quoted with backslash escaping.
//
// The package provides the Event value type, single-line Format/Parse, and
// buffered stream Reader/Writer types for log files and sockets.
//
// The decode path is built for the loader's throughput target: ParseBytes
// tokenizes without splitting, attr keys and event types are interned
// (one allocation per process, not per event), values are zero-copy
// slices of a single retained backing string, and events recycle through
// a sync.Pool (see pool.go for the ownership rules).
package bp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// TimeFormat is the canonical BP timestamp layout: ISO 8601 in UTC with
// microsecond precision, as emitted by the NetLogger toolkit.
const TimeFormat = "2006-01-02T15:04:05.000000Z"

// Reserved attribute names with dedicated struct fields on Event.
const (
	KeyTS    = "ts"
	KeyEvent = "event"
)

// Level values conventionally carried in the "level" attribute.
const (
	LevelInfo  = "Info"
	LevelWarn  = "Warn"
	LevelError = "Error"
	LevelDebug = "Debug"
)

// Event is one BP log message: a timestamp, a hierarchical event type, and
// a flat set of string attributes. Attrs never contains the "ts" or
// "event" keys; those live in the dedicated fields.
type Event struct {
	TS    time.Time
	Type  string
	Attrs Attrs

	// Trace context for the sampled-event tracing layer (internal/trace).
	// TraceID is the deterministic hash of the event's raw line, 0 when
	// the event is unsampled; TraceNS is the Unix-nanosecond boundary of
	// the last recorded stage. Both ride the pooled event through the
	// pipeline and are reset by ReleaseEvent. bp itself never reads them.
	TraceID uint64
	TraceNS int64
}

// New returns an Event of the given type at the given time with no
// attributes yet.
func New(typ string, ts time.Time) *Event {
	return &Event{TS: ts, Type: typ, Attrs: make(Attrs, 0, 8)}
}

// Set stores a string attribute and returns the event for chaining.
// Setting "ts" or "event" through Set is a programming error and panics.
func (e *Event) Set(key, value string) *Event {
	if key == KeyTS || key == KeyEvent {
		panic("bp: use the TS/Type fields for " + key)
	}
	e.Attrs.Set(key, value)
	return e
}

// SetInt stores an integer attribute.
func (e *Event) SetInt(key string, v int64) *Event { return e.Set(key, strconv.FormatInt(v, 10)) }

// SetFloat stores a float attribute with the compact formatting NetLogger
// uses (no exponent for typical durations).
func (e *Event) SetFloat(key string, v float64) *Event {
	return e.Set(key, strconv.FormatFloat(v, 'f', -1, 64))
}

// Get returns the attribute value, or "" when absent.
func (e *Event) Get(key string) string { return e.Attrs.Get(key) }

// Int reads the attribute as a base-10 integer. ok is false, and the value
// 0, when the attribute is absent or is not an integer that fits in int64.
// An absent attribute costs no allocation, so the apply path reads optional
// columns through it.
func (e *Event) Int(key string) (int64, bool) {
	v, ok := e.Attrs.Lookup(key)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Float reads the attribute as a finite float64, with Int's (value, ok)
// contract. "NaN" and "±Inf" parse but count as malformed: no decimal
// column holds one, and one would poison a quantile estimate for good. The
// schema's decimal64 check refuses the same values, so on an event the
// archive has validated, Float of a mandatory decimal leaf is always ok.
func (e *Event) Float(key string) (float64, bool) {
	v, ok := e.Attrs.Lookup(key)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, false
	}
	return f, true
}

// Clone returns a deep copy of the event. For a pooled event this is the
// escape hatch: the copy is ordinary GC-managed memory that survives
// ReleaseEvent of the original.
func (e *Event) Clone() *Event {
	return &Event{TS: e.TS, Type: e.Type, Attrs: e.Attrs.Clone(),
		TraceID: e.TraceID, TraceNS: e.TraceNS}
}

// Format renders the event as one BP line without a trailing newline.
// See AppendFormat for the layout; a line that fits the stack buffer
// costs one allocation, the returned string.
func (e *Event) Format() string {
	return string(e.AppendFormat(make([]byte, 0, 512)))
}

// AppendFormat appends the event's BP line, without a trailing newline,
// to dst and returns the extended slice. "ts" and "event" come first,
// then the remaining attributes in sorted order so output is
// deterministic and diff-able. Attrs is stored sorted, so no per-call key
// sort is needed. Into a dst with room for the line it allocates nothing;
// every emitter (Writer, the engines' bus appenders, the scenario stream
// builder) encodes through it.
func (e *Event) AppendFormat(dst []byte) []byte {
	dst = append(dst, KeyTS+"="...)
	dst = appendTime(dst, e.TS)
	dst = append(dst, " "+KeyEvent+"="...)
	// Event types are dot-separated identifiers in practice, but quote
	// defensively so any parsed event formats back to a parseable line.
	dst = appendValue(dst, e.Type)
	for i := range e.Attrs {
		dst = append(dst, ' ')
		dst = append(dst, e.Attrs[i].Key...)
		dst = append(dst, '=')
		dst = appendValue(dst, e.Attrs[i].Val)
	}
	return dst
}

// String implements fmt.Stringer as an alias of Format.
func (e *Event) String() string { return e.Format() }

// appendTime appends t in UTC as TimeFormat. Years 1–9999 take a
// fixed-layout path that writes the 27 bytes directly; any other year
// defers to time.Time.AppendFormat, which the fast path equals wherever
// it applies (fractional seconds truncate, as the layout's ".000000" does).
func appendTime(dst []byte, t time.Time) []byte {
	t = t.UTC()
	year, month, day := t.Date()
	if year < 1 || year > 9999 {
		return t.AppendFormat(dst, TimeFormat)
	}
	hour, min, sec := t.Clock()
	var b [27]byte
	put := func(at, width, v int) {
		for i := at + width - 1; i >= at; i-- {
			b[i] = byte('0' + v%10)
			v /= 10
		}
	}
	put(0, 4, year)
	b[4] = '-'
	put(5, 2, int(month))
	b[7] = '-'
	put(8, 2, day)
	b[10] = 'T'
	put(11, 2, hour)
	b[13] = ':'
	put(14, 2, min)
	b[16] = ':'
	put(17, 2, sec)
	b[19] = '.'
	put(20, 6, t.Nanosecond()/1000)
	b[26] = 'Z'
	return append(dst, b[:]...)
}

// quoted marks the bytes that force a value into quotes.
var quoted = [256]bool{' ': true, '\t': true, '"': true, '=': true, '\n': true, '\r': true, '\\': true}

func needsQuoting(v string) bool {
	if v == "" {
		return true
	}
	for i := 0; i < len(v); i++ {
		if quoted[v[i]] {
			return true
		}
	}
	return false
}

func appendValue(dst []byte, v string) []byte {
	if !needsQuoting(v) {
		return append(dst, v...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, `\n`...)
		case '\r':
			dst = append(dst, `\r`...)
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// Parse decodes one BP line. Both the ISO 8601 layout and fractional
// seconds-since-epoch timestamps are accepted, matching NetLogger's
// tolerance. Lines missing ts or event are rejected.
//
// The returned event is ordinary GC-managed memory owned by the caller;
// its attr values are zero-copy slices of line. Streaming consumers that
// can honour the pool ownership rules should prefer ParseBytes.
func Parse(line string) (*Event, error) {
	e := &Event{}
	if err := e.parseLine(line); err != nil {
		return nil, err
	}
	return e, nil
}

// ParseBytes decodes one BP line from a byte slice without tokenization
// copies: the line is copied once into a retained backing string and
// every value is a slice of it, keys and the event type resolve through
// the intern table, and the Event struct plus its Attrs array come from
// the event pool. The caller owns the result and must ReleaseEvent it
// (or Clone to escape); see pool.go. line itself may be reused by the
// caller immediately — steady-state cost is the one backing allocation.
func ParseBytes(line []byte) (*Event, error) {
	e := GetEvent()
	if err := e.parseLine(string(line)); err != nil {
		ReleaseEvent(e)
		return nil, err
	}
	return e, nil
}

// parseLine tokenizes one line into e, which must be empty. Values are
// substrings of line; keys and the event type are interned.
func (e *Event) parseLine(line string) error {
	i := 0
	n := len(line)
	sawTS, sawEvent := false, false
	for i < n {
		// Skip inter-pair whitespace.
		for i < n && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= n {
			break
		}
		// Key runs to '='.
		ks := i
		for i < n && line[i] != '=' && line[i] != ' ' {
			i++
		}
		if i >= n || line[i] != '=' {
			return fmt.Errorf("bp: malformed pair at byte %d of %q", ks, truncate(line))
		}
		key := line[ks:i]
		if key == "" {
			return fmt.Errorf("bp: empty key at byte %d of %q", ks, truncate(line))
		}
		i++ // consume '='
		var val string
		if i < n && line[i] == '"' {
			i++
			vs := i
			// Scan ahead: a quoted run without backslashes is the common
			// case and needs no unescape buffer — slice it directly.
			for i < n && line[i] != '"' && line[i] != '\\' {
				i++
			}
			if i < n && line[i] == '"' {
				val = line[vs:i]
				i++
			} else {
				var err error
				val, i, err = unquoteSlow(line, vs)
				if err != nil {
					return err
				}
			}
		} else {
			vs := i
			for i < n && line[i] != ' ' && line[i] != '\t' {
				i++
			}
			val = line[vs:i]
		}
		switch key {
		case KeyTS:
			ts, err := ParseTime(val)
			if err != nil {
				return err
			}
			e.TS = ts
			sawTS = true
		case KeyEvent:
			if val == "" {
				return fmt.Errorf("bp: empty event type in %q", truncate(line))
			}
			e.Type = Intern(val)
			sawEvent = true
		default:
			e.Attrs.Set(Intern(key), internHit(val))
		}
	}
	if !sawTS {
		return fmt.Errorf("bp: missing ts in %q", truncate(line))
	}
	if !sawEvent {
		return fmt.Errorf("bp: missing event in %q", truncate(line))
	}
	return nil
}

// unquoteSlow finishes a quoted value that contains escapes, starting
// from the value's first byte at vs (the opening quote already consumed).
// It returns the unescaped value and the index after the closing quote.
func unquoteSlow(line string, vs int) (string, int, error) {
	n := len(line)
	var sb strings.Builder
	i := vs
	for i < n {
		c := line[i]
		if c == '\\' && i+1 < n {
			switch nxt := line[i+1]; nxt {
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			case '"', '\\':
				sb.WriteByte(nxt)
			default:
				sb.WriteByte('\\')
				sb.WriteByte(nxt)
			}
			i += 2
			continue
		}
		if c == '"' {
			return sb.String(), i + 1, nil
		}
		sb.WriteByte(c)
		i++
	}
	return "", i, fmt.Errorf("bp: unterminated quote in %q", truncate(line))
}

// Representable reports whether t is an instant the archive can store: one
// whose nanoseconds since the epoch fit an int64, which is how a relstore
// Time slot holds it (years 1678 to 2262; the zero time is not one). It is
// the one definition of a storable time: relstore refuses any other, and
// the schema refuses an event whose ts or nl_ts leaf names one, so a
// refused event is refused before any of its rows is written.
func Representable(t time.Time) bool {
	// The bounds are time.Unix(0, math.MinInt64) and (0, math.MaxInt64) as
	// seconds and nanoseconds: comparing those is a quarter of the cost of
	// time.Time's Before and After, and every event pays for it.
	const minSec, minNsec, maxSec, maxNsec = -9223372037, 145224192, 9223372036, 854775807
	s := t.Unix()
	if s > minSec && s < maxSec {
		return true
	}
	ns := t.Nanosecond()
	return s == minSec && ns >= minNsec || s == maxSec && ns <= maxNsec
}

// ParseTime decodes a BP timestamp value: the canonical ISO 8601 layout
// (via an allocation-free fixed-width fast path), any RFC 3339 variant,
// or fractional seconds since the epoch within years 1–9999. It is the one
// definition of a readable nl_ts: the schema's timestamp check calls it
// (and refuses what it reads unless Representable), and the archive reads
// inv.end's start_time with it.
func ParseTime(v string) (time.Time, error) {
	if t, ok := parseCanonicalTS(v); ok {
		return t, nil
	}
	if t, err := time.Parse(time.RFC3339Nano, v); err == nil {
		return t.UTC(), nil
	}
	if t, err := time.Parse(TimeFormat, v); err == nil {
		return t.UTC(), nil
	}
	// Seconds since the epoch, possibly fractional. The range check keeps
	// the result inside years 1–9999 (and rejects NaN/±Inf), so every
	// accepted timestamp can be re-formatted as ISO 8601 and re-parsed.
	const minEpoch, maxEpoch = -62135596800, 253402300799
	if f, err := strconv.ParseFloat(v, 64); err == nil {
		if !(f >= minEpoch && f <= maxEpoch) { // negated so NaN is rejected too
			return time.Time{}, fmt.Errorf("bp: epoch timestamp %q out of range", v)
		}
		sec := int64(f)
		nsec := int64((f - float64(sec)) * 1e9)
		return time.Unix(sec, nsec).UTC(), nil
	}
	return time.Time{}, fmt.Errorf("bp: unparseable timestamp %q", v)
}

// parseCanonicalTS decodes exactly the TimeFormat layout
// ("2006-01-02T15:04:05.000000Z", 27 bytes) without going through
// time.Parse. Every timestamp the toolchain itself emits takes this path.
func parseCanonicalTS(v string) (time.Time, bool) {
	if len(v) != 27 || v[4] != '-' || v[7] != '-' || v[10] != 'T' ||
		v[13] != ':' || v[16] != ':' || v[19] != '.' || v[26] != 'Z' {
		return time.Time{}, false
	}
	num := func(s string) (int, bool) {
		n := 0
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c < '0' || c > '9' {
				return 0, false
			}
			n = n*10 + int(c-'0')
		}
		return n, true
	}
	year, ok1 := num(v[0:4])
	month, ok2 := num(v[5:7])
	day, ok3 := num(v[8:10])
	hour, ok4 := num(v[11:13])
	min, ok5 := num(v[14:16])
	sec, ok6 := num(v[17:19])
	micro, ok7 := num(v[20:26])
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7) {
		return time.Time{}, false
	}
	if month < 1 || month > 12 || day < 1 || day > daysIn(year, month) ||
		hour > 23 || min > 59 || sec > 59 {
		// Out-of-range components (leap seconds, "2012-13-40") fall back
		// to time.Parse so acceptance matches the pre-fast-path parser.
		return time.Time{}, false
	}
	return time.Date(year, time.Month(month), day, hour, min, sec, micro*1000, time.UTC), true
}

func daysIn(year, month int) int {
	switch month {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	}
	if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
		return 29
	}
	return 28
}

func truncate(s string) string {
	if len(s) > 120 {
		return s[:120] + "..."
	}
	return s
}
