package views

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// The pacing rule and its constants, for publish_test.go's table.
const (
	RestFloor     = restFloor
	RestPerCost   = restPerCost
	CostSmoothing = costSmoothing
	CostSamples   = costSamples
)

var (
	RestAfter  = restAfter
	SmoothCost = smoothCost
)

// NoteDelivery records one subscriber's wake-to-written time, as
// Sub.WriteTo does.
func (v *Views) NoteDelivery(d time.Duration) { v.deliveries.note(d) }

// PerSubscriber is what the publisher charges for each subscriber a flush
// reaches.
func (v *Views) PerSubscriber() time.Duration { return v.deliveries.perSubscriber() }

// SetRingLen sets how many frames the logs made during the test keep.
func SetRingLen(t testing.TB, n int) {
	old := ringLen
	ringLen = n
	t.Cleanup(func() { ringLen = old })
}

// listingRow has the fields and JSON names of the dashboard's
// WorkflowStatus, the row GET /api/workflows serialises.
type listingRow struct {
	UUID       string    `json:"uuid"`
	Label      string    `json:"label"`
	SubmitHost string    `json:"submit_host"`
	State      string    `json:"state"`
	Planned    time.Time `json:"planned"`
	WallSecs   float64   `json:"wall_seconds"`
	IsRoot     bool      `json:"is_root"`
}

// ListingJSON is the oracle AppendListing is held to: the listing encoded
// afresh from Summaries, by an Encoder with SetIndent("", "  "), as the
// dashboard's scan path writes its rows.
func ListingJSON(v *Views) ([]byte, error) {
	sums := v.Summaries()
	rows := make([]listingRow, len(sums))
	for i, s := range sums {
		rows[i] = listingRow(s)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(rows)
	return buf.Bytes(), err
}
