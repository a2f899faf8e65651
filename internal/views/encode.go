package views

import (
	"math"
	"sort"
	"strconv"
	"time"
	"unicode/utf8"
)

// The one encoding of a workflow's view state: appendDelta writes the JSON
// object every "delta" event and every element of a snapshot or resync
// listing carries, straight into the caller's buffer and without an
// allocation. It is byte for byte what encoding/json makes of the
// WorkflowDelta that delta() builds (the property test and FuzzDeltaEncoding
// hold it to that), so a client cannot tell which one produced a frame. It
// has no error path: a non-finite float, which encoding/json refuses, is
// written as null. appendRow writes a workflow's row of GET /api/workflows
// with the same pieces, indented as the dashboard's encoder indents it
// (FuzzListingEncoding).

// jsEncoded lists the job states in the order encoding/json writes a map's
// keys — sorted — each with its key already quoted.
var jsEncoded = func() (out [numJS]struct {
	idx int
	key string
}) {
	for i := range out {
		out[i].idx = i
		out[i].key = string(appendString(nil, jsNames[i])) + ":"
	}
	sort.Slice(out[:], func(a, b int) bool { return jsNames[out[a].idx] < jsNames[out[b].idx] })
	return out
}()

// appendDelta appends w's full-state delta. Caller holds w's stripe lock.
func appendDelta(dst []byte, w *wfView) []byte {
	dst = append(dst, `{"uuid":`...)
	dst = appendString(dst, w.uuid)
	dst = append(dst, `,"label":`...)
	dst = appendString(dst, w.label)
	dst = append(dst, `,"submit_host":`...)
	dst = appendString(dst, w.submitHost)
	dst = append(dst, `,"state":`...)
	dst = appendString(dst, stateNames[w.state])
	dst = append(dst, `,"planned":"`...)
	dst = w.planned.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","wall_seconds":`...)
	dst = appendFloat(dst, w.wallSeconds())
	dst = append(dst, `,"is_root":`...)
	dst = strconv.AppendBool(dst, !w.hasParent)
	open := false
	for _, js := range jsEncoded {
		n := w.js[js.idx]
		if n == 0 {
			continue
		}
		if open {
			dst = append(dst, ',')
		} else {
			dst = append(dst, `,"job_states":{`...)
			open = true
		}
		dst = append(dst, js.key...)
		dst = strconv.AppendInt(dst, n, 10)
	}
	if open {
		dst = append(dst, '}')
	}
	dst = append(dst, `,"invocations":`...)
	dst = strconv.AppendInt(dst, w.invs, 10)
	dst = append(dst, `,"failures":`...)
	dst = strconv.AppendInt(dst, w.js[jsFailure], 10)
	p50, p95, p99 := w.quantiles()
	dst = append(dst, `,"p50_seconds":`...)
	dst = appendFloat(dst, p50)
	dst = append(dst, `,"p95_seconds":`...)
	dst = appendFloat(dst, p95)
	dst = append(dst, `,"p99_seconds":`...)
	dst = appendFloat(dst, p99)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, w.seq, 10)
	return append(dst, '}')
}

// appendRow appends w's row of the workflow listing as an Encoder with
// SetIndent("", "  ") lays out one element of the listing array: the
// newline and indent before the object included, the comma between two
// elements not. Caller holds w's stripe lock.
func appendRow(dst []byte, w *wfView) []byte {
	dst = append(dst, "\n  {\n    \"uuid\": "...)
	dst = appendString(dst, w.uuid)
	dst = append(dst, ",\n    \"label\": "...)
	dst = appendString(dst, w.label)
	dst = append(dst, ",\n    \"submit_host\": "...)
	dst = appendString(dst, w.submitHost)
	dst = append(dst, ",\n    \"state\": "...)
	dst = appendString(dst, stateNames[w.state])
	dst = append(dst, ",\n    \"planned\": \""...)
	dst = w.planned.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, "\",\n    \"wall_seconds\": "...)
	dst = appendFloat(dst, w.wallSeconds())
	dst = append(dst, ",\n    \"is_root\": "...)
	dst = strconv.AppendBool(dst, !w.hasParent)
	return append(dst, "\n  }"...)
}

// appendFloat writes f as encoding/json does: the shortest decimal that
// reads back as f, in exponent form below 1e-6 and from 1e21 up, the
// exponent without a leading zero.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString writes s quoted as encoding/json does with HTML escaping on:
// control characters, the quote, the backslash, <, > and & are escaped, and
// so are U+2028 and U+2029; a byte that is not UTF-8 becomes U+FFFD.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	from := 0 // s[from:i] is pending, nothing in it needs an escape
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[from:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			from = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[from:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			from = i + size
		case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[from:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			from = i + size
		}
		i += size
	}
	dst = append(dst, s[from:]...)
	return append(dst, '"')
}
