package schema

import (
	"testing"

	"repro/internal/bp"
)

// FuzzTimestampAgreement holds the schema's nl_ts check to bp.ParseTime: a
// timestamp leaf accepts a value exactly when the archive can read it, so
// no event the validator passes carries a start_time the fold cannot
// store. Seeds cover both layouts, the epoch range bounds and the floats
// ParseFloat reads that are no instant (NaN, ±Inf, out of range).
func FuzzTimestampAgreement(f *testing.F) {
	m, err := Model()
	if err != nil {
		f.Fatal(err)
	}
	leaf := m.Containers[InvEnd].Leaves[AttrStartTime]
	for _, seed := range []string{
		"2012-03-13T12:35:38.000000Z", "2012-03-13T12:35:38Z", "2012-03-13T12:35:38.5+02:00",
		"1331642138", "1331642138.25", "-62135596800", "253402300799", "253402300800",
		"NaN", "nan", "Inf", "-Inf", "1e300", "-1e20", "0x1p30", "1_000", "", " ", "yesterday",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		_, perr := bp.ParseTime(v)
		cerr := leaf.CheckValue(v)
		if (perr == nil) != (cerr == nil) {
			t.Fatalf("%q: bp.ParseTime error %v, schema nl_ts check %v", v, perr, cerr)
		}
	})
}
