package eventlog

import (
	"context"
	"fmt"
	"time"

	"repro/internal/archive"
	"repro/internal/loader"
	"repro/internal/mq"
	"repro/internal/wfclock"
)

// Rebuild replays the log's records [1, upTo) through the lenient loader
// into a fresh in-memory archive and returns it with the load stats.
// upTo == 0 replays the whole log. The archive+relstore that results is
// a pure function of the log prefix: replaying the same range twice
// yields stores with identical snapshot hashes (property-tested), which
// is what makes the log the source of truth and the store a disposable
// materialization.
func Rebuild(lg *Log, upTo uint64) (*archive.Archive, loader.Stats, error) {
	arch := archive.NewInMemory()
	stats, err := RebuildInto(lg, upTo, arch)
	return arch, stats, err
}

// RebuildInto replays [1, upTo) into an existing (expected-empty)
// archive, e.g. a durable one created by archive.OpenDir for
// point-in-time recovery.
//
// Determinism rules, in order of subtlety:
//
//   - The loader pipeline runs at width one (Shards: 1): a single apply
//     goroutine in arrival order. A wider pipeline interleaves apply
//     order across shards, which would make primary-key assignment
//     depend on scheduling.
//   - The flush ticker runs on a manual clock that never advances, so
//     batch boundaries depend only on record count, never on how fast
//     this machine replays. (Batch boundaries don't change final state
//     anyway — but determinism by construction beats determinism by
//     argument.)
//   - Records are fed through the same Consume path live ingest uses, so
//     malformed-line accounting classifies identically to the original
//     run; nothing re-derives or re-synthesizes data.
func RebuildInto(lg *Log, upTo uint64, arch *archive.Archive) (loader.Stats, error) {
	ld, err := loader.New(arch, loader.Options{
		Lenient: true,
		Shards:  1,
		Clock:   wfclock.NewManual(time.Unix(0, 0)),
	})
	if err != nil {
		return loader.Stats{}, err
	}
	cur, err := lg.Cursor(1, upTo)
	if err != nil {
		return loader.Stats{}, err
	}

	msgs := make(chan mq.Message, 256)
	errc := make(chan error, 1)
	go func() {
		defer close(msgs)
		for {
			rec, err := cur.Next()
			if err != nil {
				if cur.Err() != nil {
					errc <- cur.Err()
				}
				close(errc)
				return
			}
			// Consume takes ownership of Body; the cursor reuses its
			// buffer, so hand over a copy.
			msgs <- mq.Message{Body: append([]byte(nil), rec.Line...)}
		}
	}()

	stats, err := ld.Consume(context.Background(), msgs)
	if err != nil {
		// Drain so the feeder goroutine can exit.
		for range msgs {
		}
		<-errc
		return stats, err
	}
	if cerr, ok := <-errc; ok && cerr != nil {
		return stats, fmt.Errorf("eventlog: rebuild read: %w", cerr)
	}
	return stats, nil
}
