# Standard verification entry points. `make verify` is what CI runs:
# build + tests + the race detector + a short fuzz burst on the BP parser
# + lint (gofmt, go vet).

GO ?= go

.PHONY: build test race fuzz bench bench-full bench-parallel bench-e2e bench-e2e-compare profile crash-matrix lint verify soak-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency suites (loader pipeline, mq churn, relstore writers, the
# archive's identity maps under concurrent partitions, the
# views publisher and the SSE layer on top of it) and the soak harness are
# written to be meaningful under the race detector; run them with it, twice
# over in one process — no test in them may depend on process-wide state
# (span ring, metrics, event pool) being fresh — and with no skip list.
# Then everything else once.
race:
	$(GO) test -race -count=2 ./internal/mq ./internal/relstore ./internal/archive ./internal/loader ./internal/soak ./internal/views ./internal/dashboard
	$(GO) test -race $$($(GO) list ./... | grep -v -E '/internal/(mq|relstore|archive|loader|soak|views|dashboard)$$')

# A few seconds of coverage-guided fuzzing on the BP wire format
# (round-trips Format→Parse on everything the fuzzer finds), on the BP
# encoder from the event side (AppendFormat extends any prefix by exactly
# Format's line, stamps time.Time.AppendFormat's timestamp at any instant,
# and ParseBytes reads every line back), on the
# scenario-config parser (must reject, never panic), on the event-log
# record framing (corruption never panics, is always detected), and on the
# relstore WAL frame + row decoder shared with the checkpoint image reader
# (never panics, bounded allocation, encode→decode→encode is stable), and
# on the mq wire decoder, alone and behind Server.handle and the Subscribe
# reader (never panics or hangs, an accepted header re-encodes identically),
# and on the views delta and listing encoders against encoding/json
# (byte-identical wherever encoding/json accepts the view, valid JSON where
# it does not; a listing row re-encoded whenever its workflow changed), and
# on the schema's nl_ts check against bp.ParseTime (one accepts a timestamp
# exactly when the other does).
fuzz:
	$(GO) test ./internal/bp -run FuzzParse -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/bp -run FuzzAppendFormat -fuzz FuzzAppendFormat -fuzztime 10s
	$(GO) test ./internal/synth -run FuzzScenarioConfig -fuzz FuzzScenarioConfig -fuzztime 10s
	$(GO) test ./internal/eventlog -run FuzzRecordRoundTrip -fuzz FuzzRecordRoundTrip -fuzztime 10s
	$(GO) test ./internal/relstore -run FuzzWALRecord -fuzz FuzzWALRecord -fuzztime 10s
	$(GO) test ./internal/mq -run FuzzMQWire -fuzz FuzzMQWire -fuzztime 10s
	$(GO) test ./internal/views -run FuzzDeltaEncoding -fuzz FuzzDeltaEncoding -fuzztime 10s
	$(GO) test ./internal/views -run FuzzListingEncoding -fuzz FuzzListingEncoding -fuzztime 10s
	$(GO) test ./internal/schema -run FuzzTimestampAgreement -fuzz FuzzTimestampAgreement -fuzztime 10s

# A 30-second fault-plan soak through the whole pipeline
# (mq → loader → archive), paced in real time, with ingest teed into an
# event log so the audit replays from the log (and proves the replay
# deterministic) instead of re-synthesizing the stream. Four apply shards
# map 1:1 onto four store partitions, so the soak drives the multi-writer
# partitioned layout end to end. The binary exits non-zero unless every
# accounting, archive-watermark and replay check passes; the JSON report lands in
# soak-report.json for the CI artifact.
# -bundle-dir attaches the SLO health engine: the run fails if any alert
# is still firing at the end, and a firing alert drops a diagnostics
# bundle (bundle-*.tar.gz) here for stampede-doctor / the CI artifact.
soak-smoke:
	$(GO) run ./cmd/stampede-soak -scenario examples/scenarios/fault-soak.json -duration 30s -shards 4 -eventlog /tmp/soak-eventlog -bundle-dir . -out soak-report.json

# The loader benchmarks, including the snapshot-readers contention bench
# and the pooled-parse micro-bench, parsed into BENCH_loader.json for
# archiving. The loader benches also report allocs/event (a MemStats delta
# over the timed region), and the build of the benchmark's 900k-line
# scenario stream reports ns/line, allocs/line and B/line. The subscriber
# fan-out family runs at a fixed iteration count: its acceptance is a
# ratio (10k-subscriber throughput vs 0), so the three variants need
# enough iterations that GC and flush-burst placement average out.
bench:
	{ $(GO) test -bench 'BenchmarkLoader|BenchmarkReadersUnderLoad|BenchmarkParseBytes|BenchmarkSchemaValidate|BenchmarkArchiveApply|BenchmarkEventlog|BenchmarkDashboardRequests' -benchmem -run XXX . ; \
	  $(GO) test -bench 'BenchmarkWALAppend' -benchmem -run XXX ./internal/relstore ; \
	  $(GO) test -bench 'BenchmarkMQTCP' -benchmem -run XXX ./internal/mq ; \
	  $(GO) test -bench 'BenchmarkBuildStream' -benchmem -benchtime 3x -run XXX ./internal/synth ; \
	  $(GO) test -bench 'BenchmarkSubscribersUnderLoad' -benchmem -benchtime 250x -run XXX . ; } \
		| $(GO) run ./cmd/benchjson -out BENCH_loader.json

bench-full:
	$(GO) test -bench . -benchmem -run XXX .

# The sharded-loader ablation: throughput at 1/2/4/8 apply shards (each
# shard committing through its own store partition and WAL segment) plus
# the 1/4/16-partition checkpointed-store family, all fsync-on.
bench-parallel:
	$(GO) test -bench 'BenchmarkLoaderParallel|BenchmarkLoaderPartitioned' -benchtime 10x -run XXX .

# The end-to-end + per-layer benchmark BENCHMARK.json declares (see
# bench/README.md): every workload, as deployed, into one result file —
# and the comparison of two such files by the acceptance rules.
#   make bench-e2e                                  # → bench-result.json
#   make bench-e2e-compare A=parent.json B=bench-result.json
bench-e2e:
	$(GO) run ./bench -out bench-result.json

bench-e2e-compare:
	$(GO) run ./bench -compare $(A) $(B)

# Where the load path's CPU and heap go, in one command: the root test
# binary is built once, the in-process load (10k jobs, ~120k events), the
# archive-only apply loop and the load under 100 live SSE subscribers (the
# views publisher's share: look for views.(*Views).run) each run under
# -cpuprofile/-memprofile into .bench_build/, and the cumulative top 40 of
# each CPU profile is printed.
# Re-take it before claiming against a share someone else measured;
# `go tool pprof -sample_index=alloc_space -top .bench_build/repro.test
# .bench_build/LoaderScale10k.mem` reads the heap side.
profile:
	@mkdir -p .bench_build
	$(GO) test -c -o .bench_build/repro.test .
	@for b in LoaderScale10k ArchiveApply SubscribersUnderLoad100; do \
		./.bench_build/repro.test -test.run '^$$' -test.bench "^Benchmark$$b\$$" -test.benchtime 3s -test.benchmem \
			-test.cpuprofile .bench_build/$$b.cpu -test.memprofile .bench_build/$$b.mem || exit 1; \
		$(GO) tool pprof -top -cum -nodecount 40 .bench_build/repro.test .bench_build/$$b.cpu 2>/dev/null | tail -n +2; \
	done

# The crash-recovery matrix under the race detector: the newest WAL segment
# cut at every byte of its final frame and around every frame boundary,
# every byte of a mid-file frame flipped and segments dropped or swapped
# (refused, naming file and offset), kill-points during parallel group
# commit, checkpoint corruption fallback, a read-only LoadDir over a torn
# tail (touches nothing) and against a live checkpointing writer, and the
# system-level check that checkpoint+WAL-tail recovery hashes
# bit-identical to an event-log rebuild.
crash-matrix:
	$(GO) test -race -count=1 -run 'TestCrashMatrixTornWALTail|TestKillDuringParallelGroupCommit|TestRecoveryFallsBackPastInvalidCheckpoint|TestOpenTornFinalLine|TestOpenCorruptionMidFileRejected|TestLoadDirAgainstLiveWriter|TestDurablePartitionedRecoveryMatchesRebuild' ./internal/relstore ./internal/eventlog

# gofmt prints nothing when every file is formatted; any output fails the
# target.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

verify: build test race fuzz crash-matrix lint
