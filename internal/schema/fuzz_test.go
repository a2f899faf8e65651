package schema

import (
	"testing"
	"time"

	"repro/internal/bp"
	"repro/internal/relstore"
)

// FuzzTimestampAgreement holds the schema's nl_ts check to bp.ParseTime and
// to the store: a timestamp leaf accepts a value exactly when bp.ParseTime
// reads it as a Representable instant, and an accepted value is one a Unix
// nanosecond count holds exactly and a relstore Time slot takes, so no event
// the validator passes carries a start_time the fold cannot store. Seeds
// cover both layouts, the epoch range bounds, the representable range's
// edges and the floats ParseFloat reads that are no instant (NaN, ±Inf, out
// of range).
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
		"1600-01-01T00:00:00.000000Z", "1677-09-21T00:12:43.145224Z", "1677-09-21T00:12:43.145225Z",
		"2262-04-11T23:47:16.854775Z", "2262-04-11T23:47:16.854776Z", "-9223372036.854775808", "9223372037",
	} {
		f.Add(seed)
	}
	store := relstore.NewStore()
	if err := store.CreateTable(relstore.TableSchema{Name: "t", Columns: []relstore.Column{{Name: "ts", Type: relstore.Time}}}); err != nil {
		f.Fatal(err)
	}
	layout := store.Layout("t")
	col, err := layout.Col("ts")
	if err != nil {
		f.Fatal(err)
	}
	w := store.Writer(0)
	f.Fuzz(func(t *testing.T, v string) {
		ts, perr := bp.ParseTime(v)
		cerr := leaf.CheckValue(v)
		if readable := perr == nil && bp.Representable(ts); readable != (cerr == nil) {
			t.Fatalf("%q: bp.ParseTime %v error %v, schema nl_ts check %v", v, ts, perr, cerr)
		}
		if cerr != nil {
			return
		}
		if !time.Unix(0, ts.UnixNano()).Equal(ts) {
			t.Fatalf("%q: the schema accepts %v, which UnixNano does not hold", v, ts)
		}
		d := w.NewRow(layout)
		d.SetTime(col, ts)
		if _, err := w.Insert(&d); err != nil {
			t.Fatalf("%q: the schema accepts it, the store refuses it: %v", v, err)
		}
	})
}
