package uuid

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewIsV4(t *testing.T) {
	u := New()
	if u.Version() != 4 {
		t.Fatalf("version = %d, want 4", u.Version())
	}
	if u[8]&0xc0 != 0x80 {
		t.Fatalf("variant bits = %02x, want 10xxxxxx", u[8])
	}
}

func TestNewUnique(t *testing.T) {
	seen := make(map[UUID]bool)
	for i := 0; i < 1000; i++ {
		u := New()
		if seen[u] {
			t.Fatalf("duplicate uuid %s after %d draws", u, i)
		}
		seen[u] = true
	}
}

func TestParseRoundTrip(t *testing.T) {
	u := New()
	s := u.String()
	back, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	if back != u {
		t.Fatalf("round trip mismatch: %s != %s", back, u)
	}
}

func TestParseUpperCase(t *testing.T) {
	u := New()
	s := strings.ToUpper(u.String())
	back, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse upper: %v", err)
	}
	if back != u {
		t.Fatalf("upper-case parse mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"not-a-uuid",
		"ea17e8ac02ac4909b5e316e367392556",                     // no dashes
		"ea17e8ac-02ac-4909-b5e3-16e36739255",                  // short
		"ea17e8ac-02ac-4909-b5e3-16e3673925566",                // long
		"ea17e8ac_02ac_4909_b5e3_16e367392556",                 // wrong separators
		"zz17e8ac-02ac-4909-b5e3-16e367392556",                 // bad hex
		"ea17e8ac-02ac-4909-b5e3-16e36739255\x00",              // control byte
		strings.Repeat("a", 36),                                // no dashes, right len
		"ea17e8ac-02ac-4909-b5e3-16e3673925-6",                 // dash in wrong place
		"ea17e8ac-02ac-4909-b5e3--6e367392556",                 // extra dash
		" ea17e8ac-02ac-4909-b5e3-16e367392556"[:36],           // leading space
		"ea17e8ac-02ac-4909-b5e3-16e367392556 "[0:36][0:36][:], // trailing intact, control
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			if len(s) == 36 && s[8] == '-' && s[13] == '-' && s[18] == '-' && s[23] == '-' {
				// Some constructed cases may actually be valid; skip those.
				continue
			}
			t.Errorf("Parse(%q) = nil error, want failure", s)
		}
	}
}

func TestV5Deterministic(t *testing.T) {
	a := NewV5(NamespaceStampede, "workflow-1")
	b := NewV5(NamespaceStampede, "workflow-1")
	c := NewV5(NamespaceStampede, "workflow-2")
	if a != b {
		t.Fatalf("v5 not deterministic: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("v5 collision for distinct names")
	}
	if a.Version() != 5 {
		t.Fatalf("version = %d, want 5", a.Version())
	}
}

func TestV5NamespaceSeparation(t *testing.T) {
	other := New()
	a := NewV5(NamespaceStampede, "x")
	b := NewV5(other, "x")
	if a == b {
		t.Fatalf("same v5 uuid across namespaces")
	}
}

func TestNilAndIsNil(t *testing.T) {
	if New() == Nil {
		t.Fatal("fresh uuid is nil")
	}
	if got := Nil.String(); got != "00000000-0000-0000-0000-000000000000" {
		t.Fatalf("Nil.String() = %q", got)
	}
}

func TestTextMarshalRoundTrip(t *testing.T) {
	u := New()
	b, err := u.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back UUID
	if err := back.UnmarshalText(b); err != nil {
		t.Fatal(err)
	}
	if back != u {
		t.Fatalf("text round trip mismatch")
	}
}

func TestQuickParseStringInverse(t *testing.T) {
	f := func(raw [16]byte) bool {
		u := UUID(raw)
		back, err := Parse(u.String())
		return err == nil && back == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Version returns the RFC 4122 version number encoded in the UUID.
func (u UUID) Version() int { return int(u[6] >> 4) }
