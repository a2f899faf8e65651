package views

import (
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
