package health

import (
	"time"

	"repro/internal/mq"
	"repro/internal/relstore"
	"repro/internal/telemetry"
	"repro/internal/wfclock"
)

// Signal names registered by RegisterStandard. Objectives reference
// signals by these names.
const (
	SigFreshnessLag  = "ingest_freshness_lag_seconds"
	SigApplyP99      = "apply_p99_seconds"
	SigCommitP99     = "commit_p99_seconds"
	SigMQDropRate    = "mq_drop_rate"
	SigMQBacklog     = "mq_backlog"
	SigWALFsyncP99   = "wal_fsync_p99_seconds"
	SigCheckpointAge = "checkpoint_age_seconds"
	SigViewsFlushP99 = "views_flush_p99_seconds"
	SigSSEResyncRate = "sse_resync_rate"
)

// CounterRateSignal derives a per-second rate from a registry counter
// family (summed across children, or one child when label values are
// given). The first evaluation establishes the baseline and reports 0.
// Stateful: evaluate from exactly one engine.
func CounterRateSignal(clock wfclock.Clock, reg *telemetry.Registry, name string, labels ...string) SignalFunc {
	var prev float64
	var prevT time.Time
	first := true
	return func() (float64, bool) {
		v, ok := reg.SumValue(name, labels...)
		if !ok {
			return 0, false
		}
		now := clock.Now()
		if first {
			prev, prevT, first = v, now, false
			return 0, true
		}
		dt := now.Sub(prevT).Seconds()
		if dt <= 0 {
			return 0, true
		}
		rate := (v - prev) / dt
		prev, prevT = v, now
		if rate < 0 { // counter reset (registry swapped in tests)
			rate = 0
		}
		return rate, true
	}
}

// HistQuantileSignal derives a windowed quantile from a registry
// histogram: each evaluation differences the cumulative bucket counts
// against the previous one and interpolates the quantile over only the
// new observations — a p99 of "what happened since the last tick" out of
// an all-time histogram, without touching the observing hot path.
// Reports ok=false when there were no new observations. Stateful:
// evaluate from exactly one engine.
func HistQuantileSignal(reg *telemetry.Registry, name string, q float64, labels ...string) SignalFunc {
	var prev []uint64
	return func() (float64, bool) {
		upper, counts, ok := reg.SumBuckets(name, labels...)
		if !ok {
			return 0, false
		}
		if prev == nil {
			// Baseline: pre-existing history is not "this window".
			prev = counts
			return 0, false
		}
		delta := make([]uint64, len(counts))
		total := uint64(0)
		for i, c := range counts {
			if i < len(prev) && prev[i] <= c {
				delta[i] = c - prev[i]
			} else {
				delta[i] = c
			}
			total += delta[i]
		}
		prev = counts
		if total == 0 {
			return 0, false
		}
		return quantileFromBuckets(upper, delta, q), true
	}
}

// quantileFromBuckets interpolates quantile q from non-cumulative bucket
// counts (last slot = +Inf). Observations landing in the +Inf bucket
// report the highest finite bound, like Prometheus histogram_quantile.
func quantileFromBuckets(upper []float64, counts []uint64, q float64) float64 {
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(upper) == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i >= len(upper) { // +Inf bucket
				return upper[len(upper)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = upper[i-1]
			}
			return lo + (upper[i]-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return upper[len(upper)-1]
}

// WatermarkLagSignal measures ingest freshness in event time: the gap
// between the newest event timestamp offered to the pipeline (published)
// and the newest applied to the store (applied). Event time matters
// because replayed/synthetic streams carry historical timestamps — wall
// clock minus applied watermark would be meaningless there.
func WatermarkLagSignal(published, applied func() (time.Time, bool)) SignalFunc {
	return func() (float64, bool) {
		p, ok := published()
		if !ok {
			return 0, false
		}
		a, ok := applied()
		if !ok {
			return 0, false
		}
		lag := p.Sub(a).Seconds()
		if lag < 0 {
			lag = 0
		}
		return lag, true
	}
}

// Sources names what a node has for RegisterStandard to wire. Nil fields
// simply skip the signals that need them.
type Sources struct {
	// Store also supplies the partition map of /api/buildinfo and of
	// every diagnostics bundle.
	Store  *relstore.Store
	Broker *mq.Broker
	// FreshnessLag supplies the node's event-time ingest lag (see
	// WatermarkLagSignal); nil skips the freshness signal.
	FreshnessLag SignalFunc
}

// Standard returns a started engine over s: the standard signals and
// every DefaultObjectives entry they can feed. It is the engine a node
// runs, and what a file load runs.
func Standard(cfg Config, s Sources) *Engine {
	e := New(cfg)
	e.RegisterStandard(s)
	if _, err := e.AddObjectives(DefaultObjectives()...); err != nil {
		// Static objectives failing to install is a build defect.
		panic(err)
	}
	e.Start()
	return e
}

// RegisterStandard registers the standard signal set — every per-stage
// latency, drop-rate, durability and serving signal DefaultObjectives
// reads — from metrics and stats the pipeline already maintains, on the
// Default registry and the engine's clock.
func (e *Engine) RegisterStandard(s Sources) {
	reg := telemetry.Default()
	if s.FreshnessLag != nil {
		e.Register(SigFreshnessLag, s.FreshnessLag)
	}
	e.Register(SigApplyP99, HistQuantileSignal(reg, "stampede_trace_stage_seconds", 0.99, "apply"))
	e.Register(SigCommitP99, HistQuantileSignal(reg, "stampede_trace_stage_seconds", 0.99, "commit"))
	e.Register(SigMQDropRate, CounterRateSignal(e.cfg.Clock, reg, "stampede_mq_dropped_total"))
	if s.Broker != nil {
		b := s.Broker
		e.Register(SigMQBacklog, func() (float64, bool) { return float64(b.Backlog()), true })
	}
	e.Register(SigWALFsyncP99, HistQuantileSignal(reg, "stampede_relstore_wal_fsync_seconds", 0.99))
	if s.Store != nil {
		st := s.Store
		e.mu.Lock()
		e.store = st
		e.mu.Unlock()
		e.Register(SigCheckpointAge, func() (float64, bool) {
			maxAge, any := 0.0, false
			for _, cs := range st.CheckpointStats() {
				if !cs.Taken {
					continue
				}
				any = true
				if age := cs.Age.Seconds(); age > maxAge {
					maxAge = age
				}
			}
			return maxAge, any
		})
	}
	e.Register(SigViewsFlushP99, HistQuantileSignal(reg, "stampede_views_flush_seconds", 0.99))
	e.Register(SigSSEResyncRate, CounterRateSignal(e.cfg.Clock, reg, "stampede_views_resyncs_total"))
}

// DefaultObjectives is the stock SLO set. Thresholds are deliberately
// generous (a breach should mean "users notice", not "a benchmark got
// slower"); deployments tune per node. AddObjectives skips any whose
// signal is not registered on the target engine.
func DefaultObjectives() []Objective {
	return []Objective{
		{
			Name: "ingest-freshness", Severity: "page", Signal: SigFreshnessLag,
			Help:      "Applied watermark must track the published stream.",
			Threshold: 5, Budget: 0.1, BurnRate: 2,
			Fast: time.Minute, Slow: 5 * time.Minute,
			For: 15 * time.Second, ClearFor: 30 * time.Second, GateReady: true,
		},
		{
			Name: "apply-latency-p99", Severity: "ticket", Signal: SigApplyP99,
			Help:      "Per-batch apply stage p99 from the trace histograms.",
			Threshold: 0.25, Budget: 0.1, BurnRate: 2,
			Fast: time.Minute, Slow: 5 * time.Minute, For: 30 * time.Second,
		},
		{
			Name: "mq-drop-rate", Severity: "page", Signal: SigMQDropRate,
			Help:      "Broker queue overflow drops per second.",
			Threshold: 0, Budget: 0.1, BurnRate: 2,
			Fast: time.Minute, Slow: 5 * time.Minute, For: 15 * time.Second,
		},
		{
			Name: "wal-fsync-p99", Severity: "ticket", Signal: SigWALFsyncP99,
			Help:      "WAL group-commit fsync p99.",
			Threshold: 0.5, Budget: 0.1, BurnRate: 2,
			Fast: time.Minute, Slow: 5 * time.Minute, For: 30 * time.Second,
		},
		{
			Name: "checkpoint-age", Severity: "ticket", Signal: SigCheckpointAge,
			Help:      "Oldest partition checkpoint age; stale checkpoints stretch recovery.",
			Threshold: 900, Budget: 0.25, BurnRate: 1,
			Fast: time.Minute, Slow: 5 * time.Minute, For: time.Minute,
		},
		{
			Name: "views-flush-p99", Severity: "ticket", Signal: SigViewsFlushP99,
			Help:      "Materialized-view flush latency p99.",
			Threshold: 0.25, Budget: 0.1, BurnRate: 2,
			Fast: time.Minute, Slow: 5 * time.Minute, For: 30 * time.Second,
		},
		{
			Name: "sse-resync-rate", Severity: "ticket", Signal: SigSSEResyncRate,
			Help:      "Slow-consumer resyncs per second across SSE subscribers.",
			Threshold: 50, Budget: 0.1, BurnRate: 2,
			Fast: time.Minute, Slow: 5 * time.Minute, For: 30 * time.Second,
		},
	}
}
