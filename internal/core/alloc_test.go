//go:build !race

package core

import (
	"testing"
	"time"

	"repro/internal/bp"
	"repro/internal/mq"
	"repro/internal/schema"
)

// TestBusAppenderAllocCeiling: the broker retains a published body, so
// the in-process appender pays exactly one allocation per event, the copy
// of the line out of the pooled encoding scratch. No queue is bound, so
// the broker itself allocates nothing.
func TestBusAppenderAllocCeiling(t *testing.T) {
	app := BusAppender{broker: mq.NewBroker()}
	ev := bp.New(schema.XwfStart, time.Date(2012, 3, 13, 12, 35, 38, 0, time.UTC)).
		Set(schema.AttrXwfID, "ea17e8ac-02ac-4909-b5e3-16e367392556").
		SetInt("restart_count", 0)
	for i := 0; i < 64; i++ { // warm the line pool
		app.Append(ev)
	}
	avg := testing.AllocsPerRun(1000, func() {
		if err := app.Append(ev); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 1 {
		t.Errorf("BusAppender.Append allocates %.2f/event, want 1", avg)
	}
}
