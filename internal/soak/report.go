package soak

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/eventlog"
	"repro/internal/schema"
)

// Check is one audited invariant of a soak run.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Knee is the measured saturation point of a ramp/step scenario: the
// plateau the applied rate reaches, and the offered rate at which the
// pipeline stopped keeping up.
type Knee struct {
	PlateauEventsPerSec float64 `json:"plateau_events_per_sec"`
	OfferedAtKnee       float64 `json:"offered_at_knee,omitempty"`
}

// Report is the pass/fail audit of a soak run. Every count it compares is
// exact: the stream's own annotations predict the run event for event.
type Report struct {
	Scenario string  `json:"scenario"`
	Pass     bool    `json:"pass"`
	Checks   []Check `json:"checks"`

	Emitted           int     `json:"emitted"`
	Events            int     `json:"events"`
	InjectedMalformed int     `json:"injected_malformed"`
	InjectedDrops     int     `json:"injected_drops"`
	NaturalDrops      uint64  `json:"natural_drops"`
	Published         int     `json:"published"`
	Read              uint64  `json:"read"`
	Loaded            uint64  `json:"loaded"`
	Invalid           uint64  `json:"invalid"`
	Unknown           uint64  `json:"unknown"`
	Malformed         uint64  `json:"malformed"`
	Applied           uint64  `json:"applied"`
	Workflows         int     `json:"workflows"`
	LoaderRuns        int     `json:"loader_runs"`
	WallSeconds       float64 `json:"wall_seconds"`
	AllocsPerEvent    float64 `json:"allocs_per_event"`

	// Push-serving audit, present when the scenario set subscribers.
	Subscribers   int    `json:"subscribers,omitempty"`
	SSEEvents     uint64 `json:"sse_events,omitempty"`
	SSESnapshots  uint64 `json:"sse_snapshots,omitempty"`
	ViewWorkflows int    `json:"view_workflows,omitempty"`
	ViewHosts     int    `json:"view_hosts,omitempty"`

	// SLO audit, present when the run attached a health engine
	// (Options.SLO).
	SLO *SLOReport `json:"slo,omitempty"`

	Knee *Knee `json:"knee,omitempty"`

	// Eventlog audit results, present when the run teed ingest into an
	// event log (Options.EventlogDir).
	EventlogAppends uint64 `json:"eventlog_appends,omitempty"`
	EventlogBytes   uint64 `json:"eventlog_bytes,omitempty"`
	ReplayHash      string `json:"replay_hash,omitempty"`
}

// SLOReport summarizes the run's health engine for the report artifact.
type SLOReport struct {
	Objectives  int      `json:"objectives"`
	Fired       int      `json:"fired"`
	Resolved    int      `json:"resolved"`
	Canceled    int      `json:"canceled"`
	StillFiring []string `json:"still_firing,omitempty"`
	MaxBurnSLO  string   `json:"max_burn_slo,omitempty"`
	MaxBurn     float64  `json:"max_burn"`
	Bundles     []string `json:"bundles,omitempty"`
}

func (r *Report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Pass = false
	}
}

// BuildReport audits a run.
func BuildReport(res *Result) *Report {
	s := res.Stream
	sc := s.Scenario
	r := &Report{
		Scenario:          sc.Name,
		Pass:              true,
		Emitted:           s.Acct.Emitted,
		Events:            s.Acct.Events,
		InjectedMalformed: s.Acct.InjectedMalformed,
		InjectedDrops:     s.Acct.InjectedDrops,
		NaturalDrops:      res.NaturalDrops,
		Published:         res.Published,
		Read:              res.Stats.Read,
		Loaded:            res.Stats.Loaded,
		Invalid:           res.Stats.Invalid,
		Unknown:           res.Stats.Unknown,
		Malformed:         res.Stats.Malformed,
		Applied:           res.Applied,
		Workflows:         s.Workflows,
		LoaderRuns:        res.LoaderRuns,
		WallSeconds:       res.WallSeconds,
		AllocsPerEvent:    res.AllocsPerEvent,
	}

	// Conservation across the publish boundary: every built line was
	// either handed to the broker or discarded by the injected-drop fault.
	r.check("published = emitted - injected_drops",
		res.Published == s.Acct.Emitted-s.Acct.InjectedDrops,
		"published %d, emitted %d, injected drops %d",
		res.Published, s.Acct.Emitted, s.Acct.InjectedDrops)

	// Conservation across the queue: everything published was either
	// consumed (parsed or rejected as malformed) or dropped on overflow.
	r.check("read + malformed + natural_drops = published",
		res.Stats.Read+res.Stats.Malformed+res.NaturalDrops == uint64(res.Published),
		"read %d + malformed %d + natural drops %d vs published %d",
		res.Stats.Read, res.Stats.Malformed, res.NaturalDrops, res.Published)

	// Conservation inside the loader.
	r.check("loaded + invalid + unknown = read",
		res.Stats.Loaded+res.Stats.Invalid+res.Stats.Unknown == res.Stats.Read,
		"loaded %d + invalid %d + unknown %d vs read %d",
		res.Stats.Loaded, res.Stats.Invalid, res.Stats.Unknown, res.Stats.Read)

	// The archive's own counter agrees with the loader's.
	r.check("archive applied = loaded",
		res.Applied == res.Stats.Loaded,
		"archive applied %d, loader loaded %d", res.Applied, res.Stats.Loaded)

	if res.NaturalDrops == 0 {
		// With no overflow the audit is exact per category, not just in
		// aggregate: the loader rejected exactly the garbage we injected
		// and parsed exactly the real events that survived the drop fault.
		r.check("malformed = injected_malformed",
			res.Stats.Malformed == uint64(s.Acct.InjectedMalformed),
			"loader malformed %d, injected %d", res.Stats.Malformed, s.Acct.InjectedMalformed)
		r.check("read = events - injected_drops",
			res.Stats.Read == uint64(s.Acct.Events-s.Acct.InjectedDrops),
			"read %d, events %d, injected drops %d",
			res.Stats.Read, s.Acct.Events, s.Acct.InjectedDrops)

		checkWatermark(r, res)
		if res.Eventlog != nil {
			replayAudit(r, res)
		} else {
			shadowAudit(r, res)
		}
	} else {
		r.check("natural drops present; per-category audit skipped", true,
			"%d overflow drops (queue capacity %d): totals above remain exact",
			res.NaturalDrops, sc.Faults.QueueCapacity)
	}

	if res.Eventlog != nil {
		// Regardless of drops: the log must hold exactly what the loader
		// ingested — every parsed event and every malformed line, no
		// more, no less. This is the "log is the source of truth" law.
		r.EventlogAppends = res.Eventlog.Appends()
		r.EventlogBytes = res.Eventlog.AppendedBytes()
		r.check("eventlog appends = read + malformed",
			r.EventlogAppends == res.Stats.Read+res.Stats.Malformed,
			"appends %d, read %d + malformed %d",
			r.EventlogAppends, res.Stats.Read, res.Stats.Malformed)
	}

	if res.Subscribers > 0 {
		r.Subscribers = res.Subscribers
		r.SSEEvents = res.SSEEvents
		r.SSESnapshots = res.SSESnapshots
		r.ViewWorkflows = res.ViewWorkflows
		r.ViewHosts = res.ViewHosts
		// The views were maintained incrementally in the apply path; the
		// store is the ground truth they must not drift from.
		wfRows, cerr := res.Arch.Store().Count(archive.TWorkflow)
		r.check("view workflow count = archive workflow count",
			cerr == nil && r.ViewWorkflows == wfRows,
			"view %d, archive %d", r.ViewWorkflows, wfRows)
		// Every subscriber gets at least the connect-time snapshot; slow
		// consumers may add resyncs on top.
		r.check("every subscriber received a snapshot",
			r.SSESnapshots >= uint64(res.Subscribers),
			"%d snapshot/resync frames across %d subscribers", r.SSESnapshots, res.Subscribers)
	}

	if res.SLO != nil {
		r.SLO = &SLOReport{
			Objectives:  res.SLO.Objectives,
			Fired:       res.SLO.Fired,
			Resolved:    res.SLO.Resolved,
			Canceled:    res.SLO.Canceled,
			StillFiring: res.SLO.StillFiring,
			MaxBurnSLO:  res.SLO.MaxBurnSLO,
			MaxBurn:     res.SLO.MaxBurn,
			Bundles:     res.SLO.Bundles,
		}
		// A firing alert must clear once ingest ends and the pipeline
		// drains; one still firing after the settle is a real failure —
		// either the run left permanent lag or the engine cannot resolve.
		r.check("no alert still firing at run end",
			len(res.SLO.StillFiring) == 0,
			"fired %d, resolved %d, canceled %d, still firing %v",
			res.SLO.Fired, res.SLO.Resolved, res.SLO.Canceled, res.SLO.StillFiring)
		// Every transition into Firing captured its diagnostics bundle
		// (files only exist when the run configured a bundle directory).
		if res.SLO.BundleDir != "" {
			r.check("every firing alert captured a bundle",
				len(res.SLO.Bundles) >= res.SLO.Fired,
				"%d bundles for %d firings", len(res.SLO.Bundles), res.SLO.Fired)
		}
	}

	if sc.MaxAllocsPerEvent > 0 {
		r.check("allocs per event under ceiling",
			res.AllocsPerEvent <= sc.MaxAllocsPerEvent,
			"%.1f allocs/event, ceiling %.1f", res.AllocsPerEvent, sc.MaxAllocsPerEvent)
	}

	r.Knee = measureKnee(res)
	return r
}

// checkWatermark verifies freshness: the archive's watermark must reach
// the newest final timestamp among the workflows the drop fault left
// whole. Which workflows got there is shadowAudit's job (replayAudit's
// with an event log): its loaded and per-table row counts fail whenever a
// line that reached the broker was not applied.
func checkWatermark(r *Report, res *Result) {
	var want time.Time
	whole := 0
	for wf, last := range res.Stream.WFLastTS {
		if res.Stream.DroppedWFs[wf] {
			continue
		}
		whole++
		if last.After(want) {
			want = last
		}
	}
	got, _ := res.Arch.Watermark()
	r.check("archive watermark reached final event",
		!got.Before(want),
		"watermark %s, newest final event %s across %d whole workflows",
		got.Format("15:04:05.000"), want.Format("15:04:05.000"), whole)
}

// shadowAudit replays every line that reached the broker through a fresh
// in-memory archive with the same validate-then-apply semantics the
// loader uses, and compares outcome counts and per-table row counts. This
// is the exactness oracle: injected drops of structural events cascade
// into apply failures, and the shadow predicts precisely how many.
func shadowAudit(r *Report, res *Result) {
	val, err := schema.NewValidator()
	if err != nil {
		r.check("shadow apply", false, "validator: %v", err)
		return
	}
	shadow := archive.NewInMemory()
	defer shadow.Close()
	var loaded, invalid, unknown uint64
	for i := range res.Stream.Lines {
		ln := &res.Stream.Lines[i]
		if ln.Drop || ln.Malformed {
			continue
		}
		ev, perr := bp.ParseBytes(ln.Body)
		if perr != nil {
			r.check("shadow apply", false, "unexpected parse failure: %v", perr)
			return
		}
		if verr := val.Validate(ev); verr != nil {
			invalid++
			bp.ReleaseEvent(ev)
			continue
		}
		switch aerr := shadow.Apply(ev); {
		case aerr == nil:
			loaded++
		case errors.Is(aerr, archive.ErrUnknownEvent):
			unknown++
		default:
			invalid++
		}
		bp.ReleaseEvent(ev)
	}
	r.check("loaded matches shadow replay",
		loaded == res.Stats.Loaded,
		"shadow %d, run %d", loaded, res.Stats.Loaded)
	r.check("invalid matches shadow replay",
		invalid == res.Stats.Invalid && unknown == res.Stats.Unknown,
		"shadow invalid %d unknown %d, run invalid %d unknown %d",
		invalid, unknown, res.Stats.Invalid, res.Stats.Unknown)

	names := []string{}
	for _, ts := range archive.Schemas() {
		names = append(names, ts.Name)
	}
	sort.Strings(names)
	mismatch := ""
	for _, t := range names {
		want, werr := shadow.Store().Count(t)
		got, gerr := res.Arch.Store().Count(t)
		if werr != nil || gerr != nil || want != got {
			mismatch += fmt.Sprintf(" %s: run %d want %d;", t, got, want)
		}
	}
	r.check("archive row counts match shadow replay",
		mismatch == "",
		"%d tables compared%s", len(names), mismatch)
	integrityCheck(r, "run", res.Arch)
	integrityCheck(r, "shadow replay", shadow)
}

// integrityCheck runs archive.CheckIntegrity over what arch holds now:
// relstore keeps no keys or references, so this is where a fold that lost
// a referenced row or doubled an entity shows.
func integrityCheck(r *Report, what string, arch *archive.Archive) {
	sn := arch.Snapshot()
	defer sn.Close()
	detail := "every reference names a live row, no identity key repeats"
	err := archive.CheckIntegrity(sn)
	if err != nil {
		detail = err.Error()
	}
	r.check(what+" archive integrity", err == nil, "%s", detail)
}

// replayAudit is the eventlog-mode exactness oracle: instead of
// re-synthesizing the stream (shadowAudit), it rebuilds a fresh archive
// from the run's own ingest log — the durable record of what actually
// arrived — and compares outcome counts and per-table row counts against
// the live run. It then rebuilds a second time and requires identical
// snapshot hashes: the determinism law that makes the log the source of
// truth and the store a disposable materialization.
func replayAudit(r *Report, res *Result) {
	arch1, stats, err := eventlog.Rebuild(res.Eventlog, 0)
	if err != nil {
		r.check("eventlog replay", false, "rebuild: %v", err)
		return
	}
	defer arch1.Close()

	r.check("loaded matches eventlog replay",
		stats.Loaded == res.Stats.Loaded,
		"replay %d, run %d", stats.Loaded, res.Stats.Loaded)
	r.check("invalid matches eventlog replay",
		stats.Invalid == res.Stats.Invalid && stats.Unknown == res.Stats.Unknown &&
			stats.Malformed == res.Stats.Malformed,
		"replay invalid %d unknown %d malformed %d, run invalid %d unknown %d malformed %d",
		stats.Invalid, stats.Unknown, stats.Malformed,
		res.Stats.Invalid, res.Stats.Unknown, res.Stats.Malformed)

	names := []string{}
	for _, ts := range archive.Schemas() {
		names = append(names, ts.Name)
	}
	sort.Strings(names)
	mismatch := ""
	for _, t := range names {
		want, werr := arch1.Store().Count(t)
		got, gerr := res.Arch.Store().Count(t)
		if werr != nil || gerr != nil || want != got {
			mismatch += fmt.Sprintf(" %s: run %d want %d;", t, got, want)
		}
	}
	r.check("archive row counts match eventlog replay",
		mismatch == "",
		"%d tables compared%s", len(names), mismatch)
	integrityCheck(r, "run", res.Arch)
	integrityCheck(r, "eventlog replay", arch1)

	hash1 := snapshotHash(r, arch1)
	arch2, _, err := eventlog.Rebuild(res.Eventlog, 0)
	if err != nil {
		r.check("eventlog replay determinism", false, "second rebuild: %v", err)
		return
	}
	defer arch2.Close()
	hash2 := snapshotHash(r, arch2)
	r.ReplayHash = hash1
	r.check("eventlog replay is deterministic",
		hash1 != "" && hash1 == hash2,
		"snapshot hashes %.16s vs %.16s", hash1, hash2)
}

func snapshotHash(r *Report, arch *archive.Archive) string {
	sn := arch.Snapshot()
	defer sn.Close()
	h, err := sn.Hash()
	if err != nil {
		r.check("snapshot hash", false, "%v", err)
		return ""
	}
	return h
}

// measureKnee extracts the saturation plateau from the run's samples when
// the scenario ramps or steps. The plateau is the highest applied rate
// sustained over two consecutive windows; the knee is the offered rate at
// the first sample where the pipeline fell measurably behind the offer.
func measureKnee(res *Result) *Knee {
	ramping := false
	for _, ph := range res.Stream.Scenario.Arrival.Phases {
		if ph.Mode == "ramp" || ph.Mode == "step" {
			ramping = true
		}
	}
	if !ramping || len(res.Samples) < 3 {
		return nil
	}
	k := &Knee{}
	for i := 1; i < len(res.Samples); i++ {
		sustained := res.Samples[i].Applied
		if res.Samples[i-1].Applied < sustained {
			sustained = res.Samples[i-1].Applied
		}
		if sustained > k.PlateauEventsPerSec {
			k.PlateauEventsPerSec = sustained
		}
	}
	for _, sm := range res.Samples {
		if sm.Offered > 0 && sm.Published < 0.9*sm.Offered {
			// Publisher itself fell behind the plan: pacing, not the
			// pipeline — not a knee signal.
			continue
		}
		if sm.Offered > 0 && sm.Applied < 0.9*sm.Published && sm.Published > 0 {
			k.OfferedAtKnee = sm.Offered
			break
		}
	}
	return k
}

// Render writes the human-readable report.
func (r *Report) Render(w io.Writer) {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "soak report: scenario %q — %s\n", r.Scenario, verdict)
	fmt.Fprintf(w, "  emitted %d (events %d, injected malformed %d) | injected drops %d | natural drops %d\n",
		r.Emitted, r.Events, r.InjectedMalformed, r.InjectedDrops, r.NaturalDrops)
	fmt.Fprintf(w, "  published %d -> read %d, malformed %d -> loaded %d, invalid %d, unknown %d | applied %d\n",
		r.Published, r.Read, r.Malformed, r.Loaded, r.Invalid, r.Unknown, r.Applied)
	fmt.Fprintf(w, "  workflows %d | loader runs %d | wall %.2fs | %.1f allocs/event\n",
		r.Workflows, r.LoaderRuns, r.WallSeconds, r.AllocsPerEvent)
	if r.EventlogAppends > 0 {
		fmt.Fprintf(w, "  eventlog: %d records, %d bytes", r.EventlogAppends, r.EventlogBytes)
		if r.ReplayHash != "" {
			fmt.Fprintf(w, " | replay hash %.16s…", r.ReplayHash)
		}
		fmt.Fprintln(w)
	}
	if r.Subscribers > 0 {
		fmt.Fprintf(w, "  push: %d subscribers | %d SSE frames (%d snapshot/resync) | view %d workflows, %d hosts\n",
			r.Subscribers, r.SSEEvents, r.SSESnapshots, r.ViewWorkflows, r.ViewHosts)
	}
	if r.SLO != nil {
		fmt.Fprintf(w, "  slo: %d objectives | fired %d, resolved %d, canceled %d | max burn %.2f",
			r.SLO.Objectives, r.SLO.Fired, r.SLO.Resolved, r.SLO.Canceled, r.SLO.MaxBurn)
		if r.SLO.MaxBurnSLO != "" {
			fmt.Fprintf(w, " (%s)", r.SLO.MaxBurnSLO)
		}
		if len(r.SLO.Bundles) > 0 {
			fmt.Fprintf(w, " | bundles %v", r.SLO.Bundles)
		}
		fmt.Fprintln(w)
	}
	if r.Knee != nil {
		fmt.Fprintf(w, "  knee: plateau %.0f events/s", r.Knee.PlateauEventsPerSec)
		if r.Knee.OfferedAtKnee > 0 {
			fmt.Fprintf(w, " (fell behind at offered %.0f events/s)", r.Knee.OfferedAtKnee)
		}
		fmt.Fprintln(w)
	}
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %-45s %s\n", mark, c.Name, c.Detail)
	}
}

// JSON renders the report for the CI artifact.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
