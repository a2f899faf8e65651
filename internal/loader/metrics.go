package loader

import (
	"strconv"

	"repro/internal/bp"
	"repro/internal/telemetry"
)

// Loader telemetry. Per-shard families are labeled by shard index (a
// width-one pipeline is shard "0"). Children are resolved
// once per pipeline in newBatch/newPipeline so the per-event path is pure
// atomic increments.
var (
	mRead = telemetry.NewCounter("stampede_loader_events_read_total",
		"Events parsed from files, readers and bus queues.")
	mMalformed = telemetry.NewCounter("stampede_loader_events_malformed_total",
		"Unparseable BP lines encountered.")
	mInvalid = telemetry.NewCounter("stampede_loader_events_invalid_total",
		"Events rejected by schema validation or the archive.")
	mUnknown = telemetry.NewCounter("stampede_loader_events_unknown_total",
		"Events whose type the archive does not materialise.")
	mShardApplied = telemetry.NewCounterVec("stampede_loader_shard_applied_total",
		"Events folded into the archive, per apply shard.", "shard")
	mCommits = telemetry.NewCounterVec("stampede_loader_commits_total",
		"Batches applied (made visible), per apply shard and by what triggered it: the source ran dry, the batch filled, the FlushEvery tick, or end of input.",
		"shard", "reason")
	mSyncs = telemetry.NewCounterVec("stampede_loader_syncs_total",
		"Durability syncs (WAL flush + fsync) that covered events this shard applied: of its own partitions when BatchSize were unsynced, of the whole store on the tick and at a drain.", "shard")
	mShardQueueDepth = telemetry.NewGaugeVec("stampede_loader_shard_queue_depth",
		"Apply-queue depth observed at the last dequeue, per shard.", "shard")
	mShardQueueHighWater = telemetry.NewGaugeVec("stampede_loader_shard_queue_high_water",
		"Apply-queue depth high-water mark, per shard.", "shard")
	mBatchSize = telemetry.NewHistogram("stampede_loader_batch_size",
		"Events per flushed batch.", telemetry.SizeBuckets)
	mFlushSeconds = telemetry.NewHistogramVec("stampede_loader_flush_seconds",
		"Latency of one commit that applied a batch, synced applied events, or both, per shard.",
		telemetry.DurationBuckets, "shard")
)

func shardLabel(i int) string { return strconv.Itoa(i) }

func init() {
	// The pool stats are cumulative totals, so they expose as counters
	// (scrape-time funcs over the bp atomics), not gauges.
	telemetry.NewCounterFunc("stampede_loader_event_pool_hits_total",
		"Event-pool gets served by recycling an event.",
		func() float64 { h, _, _ := bp.PoolStats(); return float64(h) })
	telemetry.NewCounterFunc("stampede_loader_event_pool_misses_total",
		"Event-pool gets that had to allocate a fresh event.",
		func() float64 { _, m, _ := bp.PoolStats(); return float64(m) })
	telemetry.NewCounterFunc("stampede_loader_event_pool_returns_total",
		"Events released back to the event pool.",
		func() float64 { _, _, r := bp.PoolStats(); return float64(r) })
}
