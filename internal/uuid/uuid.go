// Package uuid implements RFC 4122 universally unique identifiers using
// only the standard library. Stampede identifies workflows (xwf.id),
// tasks, jobs and hosts by UUID, so generation and parsing live here.
//
// Version 4 (random) UUIDs are used for run identifiers; version 5
// (SHA-1, name-based) UUIDs are used where a stable identifier must be
// derived from a name, e.g. mapping a named sub-workflow to the same id
// across planning and execution.
package uuid

import (
	"crypto/rand"
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
)

// UUID is a 128-bit RFC 4122 identifier.
type UUID [16]byte

// Nil is the zero UUID, "00000000-0000-0000-0000-000000000000".
var Nil UUID

// NamespaceStampede is the namespace for v5 UUIDs derived from Stampede
// entity names. It is itself a fixed v4 UUID chosen once for this project.
var NamespaceStampede = Must(Parse("9a1f82e4-6c1d-4f1e-9d52-7b1a33c1d9aa"))

// New returns a fresh version 4 (random) UUID. It panics only if the
// platform's cryptographic random source fails, which is unrecoverable.
func New() UUID {
	var u UUID
	if _, err := rand.Read(u[:]); err != nil {
		panic(fmt.Sprintf("uuid: crypto/rand failed: %v", err))
	}
	u[6] = (u[6] & 0x0f) | 0x40 // version 4
	u[8] = (u[8] & 0x3f) | 0x80 // variant RFC 4122
	return u
}

// NewV5 returns a version 5 (SHA-1 name-based) UUID of name within the
// given namespace. The same (space, name) pair always yields the same UUID.
func NewV5(space UUID, name string) UUID {
	h := sha1.New()
	h.Write(space[:])
	h.Write([]byte(name))
	sum := h.Sum(nil)
	var u UUID
	copy(u[:], sum[:16])
	u[6] = (u[6] & 0x0f) | 0x50 // version 5
	u[8] = (u[8] & 0x3f) | 0x80 // variant RFC 4122
	return u
}

// Parse decodes the canonical 8-4-4-4-12 hexadecimal form. It accepts
// upper- and lower-case hex digits.
func Parse(s string) (UUID, error) {
	var u UUID
	if len(s) != 36 || s[8] != '-' || s[13] != '-' || s[18] != '-' || s[23] != '-' {
		return u, errors.New("uuid: invalid format " + strconvQuote(s))
	}
	hexed := make([]byte, 0, 32)
	for i := 0; i < len(s); i++ {
		if s[i] == '-' {
			continue
		}
		hexed = append(hexed, s[i])
	}
	if _, err := hex.Decode(u[:], hexed); err != nil {
		return u, fmt.Errorf("uuid: invalid hex in %q: %w", s, err)
	}
	return u, nil
}

// Must is a helper for static initialisation that panics on parse error.
func Must(u UUID, err error) UUID {
	if err != nil {
		panic(err)
	}
	return u
}

// String renders the canonical lower-case 8-4-4-4-12 form.
func (u UUID) String() string {
	var buf [36]byte
	encodeCanonical(buf[:], u)
	return string(buf[:])
}

func encodeCanonical(dst []byte, u UUID) {
	hex.Encode(dst[0:8], u[0:4])
	dst[8] = '-'
	hex.Encode(dst[9:13], u[4:6])
	dst[13] = '-'
	hex.Encode(dst[14:18], u[6:8])
	dst[18] = '-'
	hex.Encode(dst[19:23], u[8:10])
	dst[23] = '-'
	hex.Encode(dst[24:36], u[10:16])
}

// strconvQuote is a tiny local quoting helper that avoids importing
// strconv for one call site.
func strconvQuote(s string) string {
	if len(s) > 64 {
		s = s[:64] + "..."
	}
	return `"` + s + `"`
}

// MarshalText implements encoding.TextMarshaler.
func (u UUID) MarshalText() ([]byte, error) {
	var buf [36]byte
	encodeCanonical(buf[:], u)
	return buf[:], nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (u *UUID) UnmarshalText(b []byte) error {
	parsed, err := Parse(string(b))
	if err != nil {
		return err
	}
	*u = parsed
	return nil
}
