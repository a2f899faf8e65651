package views

// The pacing rule and its constants, for publish_test.go's table.
const (
	RestFloor         = restFloor
	RestPerCost       = restPerCost
	RestPerSubscriber = restPerSubscriber
	CostSmoothing     = costSmoothing
)

var (
	RestAfter  = restAfter
	SmoothCost = smoothCost
)
