package pegasus

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/bp"
	"repro/internal/condor"
	"repro/internal/uuid"
	"repro/internal/wfclock"
)

// ExecConfig configures one executable-workflow run.
type ExecConfig struct {
	// Pool is the scheduling substrate jobs are submitted to.
	Pool *condor.Pool
	// Clock drives timestamps; use the same clock as the pool.
	Clock wfclock.Clock
	// Appender receives the normalized Stampede events via monitord.
	Appender bp.Appender
	// SubmitHost names the machine running the engine.
	SubmitHost string
	// FailureRate injects per-instance failures (exit code 1) with this
	// probability; retries then exercise the job-instance model.
	FailureRate float64
	// Seed makes failure injection reproducible.
	Seed int64
}

// RunReport summarises one workflow execution. Sub-workflow runs spawned
// by dax jobs report through SubReports; RunRescue fills Restarts.
type RunReport struct {
	WfUUID     string
	Succeeded  int
	Failed     int
	Retries    int
	Restarts   int
	Status     int64 // 0 ok, -1 when any job exhausted its retries
	Elapsed    time.Duration
	SubReports []*RunReport
}

// Engine is the DAGMan-like executor: it releases jobs as their parents
// succeed, submits them to the pool, evaluates exit codes, and retries
// failed instances up to each job's MaxRetries.
type Engine struct {
	cfg ExecConfig
}

// NewEngine builds an executor.
func NewEngine(cfg ExecConfig) (*Engine, error) {
	if cfg.Pool == nil {
		return nil, fmt.Errorf("pegasus: engine needs a condor pool")
	}
	if cfg.Clock == nil {
		cfg.Clock = wfclock.Real
	}
	if cfg.SubmitHost == "" {
		cfg.SubmitHost = "submit-host"
	}
	return &Engine{cfg: cfg}, nil
}

// Run executes the workflow to completion and returns the report. Events
// flow to the appender throughout, so a concurrent loader sees the run
// live. Dax jobs (sub-workflows) are planned with the parent's
// configuration and executed recursively.
func (e *Engine) Run(ctx context.Context, ew *EW) (*RunReport, error) {
	return e.run(ctx, ew, uuid.New().String(), "", "", newRestartState(), 0)
}

// RunRescue executes the workflow and, when jobs remain failed, re-runs
// it as DAGMan rescue DAGs do: the same workflow UUID with an incremented
// restart_count, re-emitting the static description (the archive must
// deduplicate it) and re-submitting only the jobs that have not yet
// succeeded. It stops after maxRestarts rescue attempts or on success.
func (e *Engine) RunRescue(ctx context.Context, ew *EW, maxRestarts int) (*RunReport, error) {
	wfUUID := uuid.New().String()
	rs := newRestartState()
	var report *RunReport
	for restart := 0; ; restart++ {
		var err error
		report, err = e.run(ctx, ew, wfUUID, "", "", rs, int64(restart))
		if err != nil {
			return report, err
		}
		report.Restarts = restart
		if report.Status == 0 || restart >= maxRestarts {
			return report, nil
		}
	}
}

// restartState carries what rescue runs need to remember between
// attempts: which jobs already succeeded and how many instances each job
// has consumed (submit sequence numbers keep increasing across restarts).
type restartState struct {
	mu        sync.Mutex
	completed map[string]bool
	attempts  map[string]int64
}

func newRestartState() *restartState {
	return &restartState{completed: map[string]bool{}, attempts: map[string]int64{}}
}

func (rs *restartState) isDone(job string) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.completed[job]
}

func (rs *restartState) markDone(job string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.completed[job] = true
}

func (rs *restartState) nextSeq(job string) int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.attempts[job]++
	return rs.attempts[job]
}

func (e *Engine) run(ctx context.Context, ew *EW, wfUUID, parentUUID, rootUUID string, rs *restartState, restart int64) (*RunReport, error) {
	clk := e.cfg.Clock
	var mon *Monitord
	if e.cfg.Appender != nil {
		mon = NewMonitord(e.cfg.Appender, wfUUID, e.cfg.SubmitHost)
		mon.ParentUUID = parentUUID
		mon.RootUUID = rootUUID
		mon.EmitPlan(ew, clk.Now())
		mon.XwfStart(clk.Now(), restart)
	}
	start := clk.Now()
	// Failure decisions are a pure function of (seed, workflow, job,
	// attempt): runs are reproducible regardless of goroutine scheduling,
	// and a rescue re-attempt of the same job gets a fresh draw.
	chance := func(job string, seq int64) float64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%s/%s/%d", e.cfg.Seed, ew.Label, job, seq)
		return float64(h.Sum64()%1_000_000) / 1_000_000
	}

	// Dependency bookkeeping.
	indeg := make(map[string]int, len(ew.Jobs))
	children := make(map[string][]string)
	for _, j := range ew.Jobs {
		indeg[j.ID] = 0
	}
	for _, edge := range ew.Edges {
		indeg[edge[1]]++
		children[edge[0]] = append(children[edge[0]], edge[1])
	}

	type outcome struct {
		job     *Job
		ok      bool
		retries int
		sub     *RunReport
	}
	results := make(chan outcome, len(ew.Jobs))
	root := rootUUID
	if root == "" {
		root = wfUUID
	}
	launch := func(j *Job) {
		go func() {
			if rs.isDone(j.ID) {
				// Rescue run: this job already succeeded in an earlier
				// attempt; release its children without re-running it.
				results <- outcome{job: j, ok: true}
				return
			}
			if j.SubDAX != nil {
				ok, retries, sub := e.runSubDAX(ctx, ew, j, wfUUID, root, mon, chance, rs)
				if ok {
					rs.markDone(j.ID)
				}
				results <- outcome{job: j, ok: ok, retries: retries, sub: sub}
				return
			}
			ok, retries, err := e.runJob(ctx, ew, j, wfUUID, mon, chance, rs)
			if err != nil {
				results <- outcome{job: j, ok: false, retries: retries}
				return
			}
			if ok {
				rs.markDone(j.ID)
			}
			results <- outcome{job: j, ok: ok, retries: retries}
		}()
	}

	pending := len(ew.Jobs)
	report := &RunReport{WfUUID: wfUUID}
	for _, j := range ew.Jobs {
		if indeg[j.ID] == 0 {
			launch(j)
		}
	}
	skipped := map[string]bool{}
	for pending > 0 {
		var res outcome
		select {
		case res = <-results:
		case <-ctx.Done():
			if mon != nil {
				mon.XwfEnd(clk.Now(), restart, -1)
			}
			return report, ctx.Err()
		}
		pending--
		report.Retries += res.retries
		if res.sub != nil {
			report.SubReports = append(report.SubReports, res.sub)
		}
		if res.ok {
			report.Succeeded++
			for _, c := range children[res.job.ID] {
				indeg[c]--
				if indeg[c] == 0 && !skipped[c] {
					launch(ew.Job(c))
				}
			}
		} else {
			report.Failed++
			// Descendants can never run; drop them from pending.
			var stack []string
			stack = append(stack, children[res.job.ID]...)
			for len(stack) > 0 {
				c := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if skipped[c] {
					continue
				}
				skipped[c] = true
				pending--
				stack = append(stack, children[c]...)
			}
		}
	}
	report.Elapsed = clk.Since(start)
	if report.Failed > 0 {
		report.Status = -1
	}
	if mon != nil {
		mon.XwfEnd(clk.Now(), restart, report.Status)
	}
	return report, nil
}

// runSubDAX executes a dax job: it plans the nested abstract workflow
// with the parent's configuration and runs it recursively, retrying the
// whole sub-workflow on failure as DAGMan retries subdax jobs. The child
// run's events land on the same appender; the parent emits the
// hierarchy-linking events and a summarising invocation record.
func (e *Engine) runSubDAX(ctx context.Context, ew *EW, j *Job, wfUUID, rootUUID string, mon *Monitord, chance func(string, int64) float64, rs *restartState) (bool, int, *RunReport) {
	clk := e.cfg.Clock
	retries := 0
	var lastReport *RunReport
	for attempt := 0; attempt <= j.MaxRetries; attempt++ {
		seq := rs.nextSeq(j.ID)
		childUUID := uuid.New().String()
		if mon != nil {
			mon.SubmitStart(j.ID, seq, clk.Now())
			mon.Submitted(j.ID, seq, clk.Now())
			mon.MapSubwfJob(j.ID, seq, childUUID, clk.Now())
			mon.Executing(j.ID, seq, clk.Now(), ew.Site, e.cfg.SubmitHost, "127.0.0.1")
		}
		childEW, err := Plan(j.SubDAX, ew.PlanCfg)
		if err != nil {
			if mon != nil {
				mon.Terminated(j.ID, seq, clk.Now(), ew.Site, 1, "planning failed: "+err.Error())
			}
			return false, retries, nil
		}
		start := clk.Now()
		report, err := e.run(ctx, childEW, childUUID, wfUUID, rootUUID, newRestartState(), 0)
		if err != nil {
			return false, retries, report
		}
		lastReport = report
		exit := int64(0)
		stderr := ""
		if report.Status != 0 {
			exit = 1
			stderr = fmt.Sprintf("sub-workflow %s failed (%d job failures)", childUUID, report.Failed)
		}
		if mon != nil {
			mon.Invocation(j.ID, seq, InvocationRecord{
				InvID:          1,
				TaskID:         j.TaskIDs[0],
				Transformation: j.Transformation,
				Executable:     j.Executable,
				Start:          start,
				DurSeconds:     clk.Since(start).Seconds(),
				Exit:           exit,
				Hostname:       e.cfg.SubmitHost,
				Site:           ew.Site,
			})
			mon.Terminated(j.ID, seq, clk.Now(), ew.Site, exit, stderr)
		}
		if exit == 0 {
			return true, retries, lastReport
		}
		if attempt < j.MaxRetries {
			retries++
		}
	}
	return false, retries, lastReport
}

// runJob drives one job through its retry loop. It returns whether the
// job eventually succeeded and how many retries it consumed.
func (e *Engine) runJob(ctx context.Context, ew *EW, j *Job, wfUUID string, mon *Monitord, chance func(string, int64) float64, rs *restartState) (bool, int, error) {
	clk := e.cfg.Clock
	retries := 0
	for attempt := 0; attempt <= j.MaxRetries; attempt++ {
		seq := rs.nextSeq(j.ID)
		fails := chance(j.ID, seq) < e.cfg.FailureRate
		exit := 0
		if fails {
			exit = 1
		}
		if mon != nil {
			mon.SubmitStart(j.ID, seq, clk.Now())
		}
		done, err := e.cfg.Pool.Submit(condor.JobSpec{
			ID:         fmt.Sprintf("%s+%d", j.ID, seq),
			Executable: j.Executable,
			Args:       j.Args,
			Site:       ew.Site,
			Duration:   wfclock.DurationSeconds(j.RuntimeSeconds),
			ExitCode:   exit,
		})
		if err != nil {
			return false, retries, err
		}
		if mon != nil {
			mon.Submitted(j.ID, seq, clk.Now())
		}
		var term condor.Event
		select {
		case term = <-done:
		case <-ctx.Done():
			return false, retries, ctx.Err()
		}
		execStart := term.Time.Add(-wfclock.DurationSeconds(j.RuntimeSeconds))
		if mon != nil {
			mon.Executing(j.ID, seq, execStart, term.Site, term.Hostname, term.IP)
			e.emitInvocations(ew, j, seq, execStart, term, mon)
			stderr := ""
			if exit != 0 {
				stderr = fmt.Sprintf("transformation %s failed on %s (injected fault)", j.Transformation, term.Hostname)
			}
			mon.Terminated(j.ID, seq, term.Time, term.Site, int64(term.ExitCode), stderr)
		}
		if term.ExitCode == 0 {
			return true, retries, nil
		}
		if attempt < j.MaxRetries {
			retries++
		}
	}
	return false, retries, nil
}

// emitInvocations renders the kickstart records of one job instance: one
// invocation per abstract task (sequential shares of the job window for
// clustered jobs), or a single auxiliary invocation for staging jobs.
func (e *Engine) emitInvocations(ew *EW, j *Job, seq int64, execStart time.Time, term condor.Event, mon *Monitord) {
	if len(j.TaskIDs) == 0 {
		mon.Invocation(j.ID, seq, InvocationRecord{
			InvID:          1,
			Transformation: j.Transformation,
			Executable:     j.Executable,
			Start:          execStart,
			DurSeconds:     j.RuntimeSeconds,
			CPUSeconds:     j.RuntimeSeconds * 0.9,
			Exit:           int64(term.ExitCode),
			Hostname:       term.Hostname,
			Site:           term.Site,
		})
		return
	}
	taskRuntime := map[string]float64{}
	for _, t := range ew.DAX.Tasks {
		taskRuntime[t.ID] = t.RuntimeSeconds
	}
	cursor := execStart
	for i, tid := range j.TaskIDs {
		dur := taskRuntime[tid]
		exit := int64(0)
		// A failing clustered job fails at its last member invocation.
		if term.ExitCode != 0 && i == len(j.TaskIDs)-1 {
			exit = int64(term.ExitCode)
		}
		mon.Invocation(j.ID, seq, InvocationRecord{
			InvID:          int64(i + 1),
			TaskID:         tid,
			Transformation: j.Transformation,
			Executable:     j.Executable,
			Args:           j.Args,
			Start:          cursor,
			DurSeconds:     dur,
			CPUSeconds:     dur * 0.93,
			Exit:           exit,
			Hostname:       term.Hostname,
			Site:           term.Site,
		})
		cursor = cursor.Add(wfclock.DurationSeconds(dur))
	}
}
