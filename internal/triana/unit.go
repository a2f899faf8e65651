package triana

import (
	"time"

	"repro/internal/wfclock"
)

// FuncUnit adapts a function to the Unit interface; most workflow
// components in the examples are built from it, the way Triana units wrap
// small pieces of Java code.
type FuncUnit struct {
	UnitName string
	Desc     string // Stampede type_desc; "unit" when empty
	Fn       func(ctx *ProcessContext) ([]any, error)
}

// Name implements Unit.
func (u *FuncUnit) Name() string { return u.UnitName }

// TypeDesc implements the TypeDesc extension.
func (u *FuncUnit) TypeDesc() string {
	if u.Desc == "" {
		return "unit"
	}
	return u.Desc
}

// Process implements Unit.
func (u *FuncUnit) Process(ctx *ProcessContext) ([]any, error) { return u.Fn(ctx) }

// WorkUnit simulates a computation of fixed duration on the scheduler's
// clock and passes its input through. Workloads with a calibrated cost
// model (the DART sweep) use it so virtual-clock runs reproduce the
// paper's timing tables.
type WorkUnit struct {
	UnitName string
	Desc     string
	Duration time.Duration
	Clock    wfclock.Clock
	// Fn optionally performs real work with the inputs; its outputs are
	// forwarded. When nil the inputs pass through unchanged.
	Fn func(ctx *ProcessContext) ([]any, error)
}

// Name implements Unit.
func (u *WorkUnit) Name() string { return u.UnitName }

// TypeDesc implements the TypeDesc extension.
func (u *WorkUnit) TypeDesc() string {
	if u.Desc == "" {
		return "processing"
	}
	return u.Desc
}

// Process implements Unit.
func (u *WorkUnit) Process(ctx *ProcessContext) ([]any, error) {
	clk := u.Clock
	if clk == nil {
		clk = wfclock.Real
	}
	clk.Sleep(u.Duration)
	if u.Fn != nil {
		return u.Fn(ctx)
	}
	out := make([]any, len(ctx.Inputs))
	copy(out, ctx.Inputs)
	if len(out) == 0 {
		out = []any{nil}
	}
	return out, nil
}
