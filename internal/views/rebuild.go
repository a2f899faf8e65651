package views

import (
	"fmt"

	"repro/internal/archive"
	"repro/internal/relstore"
)

// BuildFromSnapshot rebuilds the materialized views from a store snapshot
// — the recovery path: after a checkpoint+WAL restart the views (which
// live only in memory) are reconstructed from the recovered store before
// the loader resumes, so incremental maintenance continues from exactly
// the state a from-scratch scan would produce.
//
// It must be called on a fresh Views before any ObserveBatch. Row scans
// come back in primary-key order; row ids are allocated at apply time
// from shared per-table counters, so each workflow's rows replay in its
// original apply order — which makes even the order-sensitive P² quantile
// estimators land in the same state as live maintenance. Mirroring the
// archive's own reopen behaviour (warmCaches), the per-instance auto
// invocation counter resumes above the largest stored sequence number,
// and invSeen is restored, so replayed duplicates are still rejected.
//
// The anomaly detector is warmed with the recovered durations but alerts
// are suppressed: they were already published (or deliberately dropped)
// when the events first applied.
func (v *Views) BuildFromSnapshot(sn *relstore.Snapshot) error {
	// The flush ticker is already running; hold every stripe lock for the
	// rebuild's duration so a tick (or an early reader) observes either
	// nothing or the complete rebuilt state. FlushNow locks stripes one at
	// a time and hostFor manages its own lock, so this cannot deadlock.
	for i := range v.stripes {
		v.stripes[i].mu.Lock()
	}
	defer func() {
		for i := range v.stripes {
			v.stripes[i].mu.Unlock()
		}
	}()

	c, err := archive.ResolveColumns(sn)
	if err != nil {
		return err
	}

	// Workflows, in pk order = creation order.
	wfRows, err := sn.Select(relstore.Query{Table: archive.TWorkflow})
	if err != nil {
		return err
	}
	wfByID := make(map[int64]*wfView, len(wfRows))
	for _, r := range wfRows {
		uuid := r.Str(c.Workflow.UUID)
		st := v.stripeFor(uuid)
		w := v.wfFor(st, uuid, r.Time(c.Workflow.Timestamp))
		w.label = r.Str(c.Workflow.DaxLabel)
		w.submitHost = r.Str(c.Workflow.SubmitHostname)
		w.planned = r.Time(c.Workflow.Timestamp)
		if !r.IsNull(c.Workflow.ParentID) {
			w.hasParent = true
		}
		wfByID[r.ID()] = w
	}

	// Workflow states: global pk order preserves each workflow's arrival
	// order, which is what the last-wins-on-timestamp-ties rule needs.
	stRows, err := sn.Select(relstore.Query{Table: archive.TWorkflowState})
	if err != nil {
		return err
	}
	for _, r := range stRows {
		w := wfByID[r.Int(c.WorkflowState.WfID)]
		if w == nil {
			continue
		}
		ts := r.Time(c.WorkflowState.Timestamp)
		switch r.Str(c.WorkflowState.State) {
		case archive.WFStateStarted:
			w.noteState(wfRunning, ts)
		case archive.WFStateTerminated:
			state := uint8(wfSuccess)
			if r.Int(c.WorkflowState.Status) != 0 {
				state = wfFailure
			}
			w.noteState(state, ts)
		}
	}

	// Jobs: resolve instance rows back to (workflow, exec job id).
	jobRows, err := sn.Select(relstore.Query{Table: archive.TJob})
	if err != nil {
		return err
	}
	jobWF := make(map[int64]*wfView, len(jobRows))
	jobName := make(map[int64]string, len(jobRows))
	for _, r := range jobRows {
		jobWF[r.ID()] = wfByID[r.Int(c.Job.WfID)]
		jobName[r.ID()] = r.Str(c.Job.ExecJobID)
	}

	// Hosts, in pk order = creation order.
	hostRows, err := sn.Select(relstore.Query{Table: archive.THost})
	if err != nil {
		return err
	}
	hostByID := make(map[int64]*hostView, len(hostRows))
	for _, r := range hostRows {
		hostByID[r.ID()] = v.hostFor(r.Str(c.Host.Site), r.Str(c.Host.Hostname), r.Str(c.Host.IP))
	}

	// Job instances: host attribution comes straight from the stored
	// host_id + local_duration columns.
	instRows, err := sn.Select(relstore.Query{Table: archive.TJobInstance})
	if err != nil {
		return err
	}
	instByID := make(map[int64]*vinst, len(instRows))
	instWF := make(map[int64]*wfView, len(instRows))
	for _, r := range instRows {
		jid := r.Int(c.JobInstance.JobID)
		w := jobWF[jid]
		if w == nil {
			continue
		}
		st := v.stripeFor(w.uuid)
		is := v.instFor(st, w, jobName[jid], r.Int(c.JobInstance.SubmitSeq))
		if !r.IsNull(c.JobInstance.LocalDuration) {
			is.dur, is.hasDur = r.Float(c.JobInstance.LocalDuration), true
		}
		if !r.IsNull(c.JobInstance.HostID) {
			if h := hostByID[r.Int(c.JobInstance.HostID)]; h != nil {
				is.host = h
				dur := 0.0
				if is.hasDur {
					dur = is.dur
				}
				h.add(dur, 1)
			}
		}
		instByID[r.ID()] = is
		instWF[r.ID()] = w
	}

	// Job states: per-workflow counts, plus warming each instance's
	// latest-EXECUTE timestamp exactly as archive.warmCaches does.
	jsRows, err := sn.Select(relstore.Query{Table: archive.TJobState})
	if err != nil {
		return err
	}
	execSeq := make(map[*vinst]int64)
	for _, r := range jsRows {
		id := r.Int(c.JobState.JobInstanceID)
		w := instWF[id]
		if w == nil {
			continue
		}
		state := r.Str(c.JobState.State)
		idx, ok := jsIndexByName[state]
		if !ok {
			return fmt.Errorf("views: unknown jobstate %q in rebuild", state)
		}
		w.js[idx]++
		if state == archive.JSExecute {
			is := instByID[id]
			seq := r.Int(c.JobState.SubmitSeq)
			if s, seen := execSeq[is]; !seen || seq >= s {
				execSeq[is] = seq
				is.execTS = r.Time(c.JobState.Timestamp)
			}
		}
	}

	// Invocations: counts, duplicate memory, and the P² estimators in
	// original per-workflow order.
	invRows, err := sn.Select(relstore.Query{Table: archive.TInvocation})
	if err != nil {
		return err
	}
	for _, r := range invRows {
		id := r.Int(c.Invocation.JobInstanceID)
		w := instWF[id]
		if w == nil {
			continue
		}
		is := instByID[id]
		if is.invSeen == nil {
			is.invSeen = make(map[int64]struct{}, 4)
		}
		seq := r.Int(c.Invocation.TaskSubmitSeq)
		is.invSeen[seq] = struct{}{}
		is.invSeq = max(is.invSeq, seq+1)
		w.invs++
		if !r.IsNull(c.Invocation.RemoteDuration) {
			d := r.Float(c.Invocation.RemoteDuration)
			w.q50.Observe(d)
			w.q95.Observe(d)
			w.q99.Observe(d)
			if tr := r.Str(c.Invocation.Transformation); tr != "" {
				v.det.Observe(tr, d) // warm baseline; alerts suppressed
			}
		}
	}

	// The rebuild is the baseline, not a change to stream: nothing above
	// called touch(), so no deltas are queued — but clear the stripe
	// memos wfFor left behind so the first live batch starts clean, and,
	// seq not having moved, any listing row encoded before the rebuild.
	for i := range v.stripes {
		v.stripes[i].lastUUID, v.stripes[i].lastWF = "", nil
	}
	for _, w := range v.ordered() {
		w.row = nil
	}
	return nil
}
