package main

import (
	_ "embed"
	"fmt"

	"repro/internal/schema"
	"repro/internal/synth"
)

//go:embed scenarios/mixed.json
var mixedScenario []byte

// wfLines is one workflow's share of the stream, in publish order. The
// loader preserves per-workflow order, so the k-th event a workflow's
// observer sees is lines[k], and the k-th invocation a viewer sees counted
// for it is invEnds[k]: that is how commits and frames are matched back to
// published lines without adding anything to the lines themselves.
type wfLines struct {
	uuid    string
	lines   []int32 // indexes into input.lines of every line of this workflow
	invEnds []int32 // the subset that are stampede.inv.end lines
}

// input is the seed-determined stream one workload replays from its first
// line to its last.
type input struct {
	lines []synth.Line
	wfs   []*wfLines
}

// buildInput compiles the mixed scenario with the given seed into a
// stream of exactly n lines. The seed reaches synth only; the pipeline
// sees nothing but the generated lines. The scenario's schedule is cut to
// the length that offers n events, so a stream of any size holds whole
// workflow lifecycles in the scenario's proportions: a prefix of a longer
// stream would be mostly the static events workflows start with. synth
// finishes the workflow that crosses n, and the few lines past n are cut.
func buildInput(seed int64, n int) (*input, error) {
	sc, err := synth.ParseScenario(mixedScenario)
	if err != nil {
		return nil, fmt.Errorf("bench: scenario: %w", err)
	}
	sc.Seed = seed
	st, err := synth.BuildStream(sc, float64(n)/sc.Arrival.Phases[0].Rate)
	if err != nil {
		return nil, fmt.Errorf("bench: build stream: %w", err)
	}
	if len(st.Lines) < n {
		return nil, fmt.Errorf("bench: stream has %d lines, want %d", len(st.Lines), n)
	}
	in := &input{lines: st.Lines[:n]}
	byWF := make(map[string]*wfLines, len(st.WFLastTS))
	for i := range in.lines {
		ln := &in.lines[i]
		if ln.WF == "" || ln.Malformed || ln.Drop {
			return nil, fmt.Errorf("bench: line %d is not a plain workflow event; the scenario must have no fault plan", i)
		}
		w := byWF[ln.WF]
		if w == nil {
			w = &wfLines{uuid: ln.WF}
			byWF[ln.WF] = w
			in.wfs = append(in.wfs, w)
		}
		w.lines = append(w.lines, int32(i))
		if ln.Key == schema.InvEnd {
			w.invEnds = append(w.invEnds, int32(i))
		}
	}
	return in, nil
}
