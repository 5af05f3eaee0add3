# Makefile — CI entry points for the rexptree repository.
#
#   make check            fmt-check + vet + build + tests + race + lbsbench unit tests + bench smokes
#   make bench-obs        metrics-overhead microbenchmark -> BENCH_obs.json
#   make bench-shard      concurrent-throughput comparison -> BENCH_shard.json
#   make bench-partition  hash vs speed partitioning -> BENCH_partition.json
#   make bench-wal        durability-policy comparison -> BENCH_wal.json
#   make bench-read       read-path scaling sweep + regression guard -> BENCH_readpath.json
#   make bench-reshard    live-reshard cost comparison -> BENCH_reshard.json
#   make bench-trace      tracing-overhead microbenchmark -> BENCH_trace.json
#   make serve-smoke      the README serving quickstart, end to end
#   make bench-serve      rexpd + remote loadgen -> BENCH_serve.json
#   make bench-repl       replication catch-up/lag/overhead -> BENCH_repl.json
#   make fault-matrix     the replication fault-injection matrix, under -race
#   make all              check + all benchmarks

GO ?= go

.PHONY: all check fmt-check vet build test race lbsbench-test fuzz-smoke bench-obs bench-obs-smoke bench-shard bench-partition bench-partition-smoke bench-wal bench-wal-smoke bench-read bench-read-smoke bench-kernel-smoke bench-reshard bench-reshard-smoke bench-trace bench-trace-smoke serve-smoke bench-serve bench-serve-smoke bench-repl bench-repl-smoke fault-matrix clean

all: check bench-obs bench-shard bench-partition bench-wal bench-read bench-reshard bench-trace bench-serve bench-repl

check: fmt-check vet build test race lbsbench-test bench-obs-smoke bench-partition-smoke bench-wal-smoke bench-read-smoke bench-kernel-smoke bench-reshard-smoke bench-trace-smoke serve-smoke bench-serve-smoke bench-repl-smoke

# Fails (with the offending file list) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The instrumentation and the concurrent query path must hold up under
# the race detector: metric counters are read (snapshots, Prometheus
# scrapes) and queries fan out while parallel Update load runs.
race:
	$(GO) test -race ./...

# The serving benchmark is its own module (lbsbench/go.mod), so
# "go test ./..." above does not reach it; run its unit tests in short
# mode (the seconds-long workload smokes are skipped).
lbsbench-test:
	cd lbsbench && $(GO) test -short ./...

# A short run of each native fuzz target: the manifest decode/encode
# round trip, the time-parameterized intersection kernel, the
# write-ahead-log frame scanner (arbitrary bytes must never panic and
# torn tails must only ever drop trailing records), the backup-stream
# restore (arbitrary bytes must never panic, and a failed restore must
# leave no file behind), and rexpd's untrusted inputs (ingest lines,
# query parameters).  Ten seconds each
# is enough to shake out regressions in the properties; leave the
# targets running longer locally when hunting.
fuzz-smoke:
	$(GO) test ./internal/manifest -run '^$$' -fuzz FuzzManifestRoundTrip -fuzztime 10s
	$(GO) test ./internal/geom -run '^$$' -fuzz FuzzTrapezoidIntersect -fuzztime 10s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzWALRoundTrip -fuzztime 10s
	$(GO) test . -run '^$$' -fuzz FuzzDualApplySchedule -fuzztime 10s
	$(GO) test ./internal/repl -run '^$$' -fuzz FuzzReplFrameRoundTrip -fuzztime 10s
	$(GO) test ./internal/repl -run '^$$' -fuzz FuzzWriteBackup -fuzztime 10s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzIngestRecord -fuzztime 10s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzQueryParams -fuzztime 10s

# Compares instrumented vs. nil-metrics Update/query throughput; the
# observability layer's budget is a <2% regression.
bench-obs:
	$(GO) run ./cmd/rexpobsbench -out BENCH_obs.json

# A fast pass of the same benchmark, as a smoke test for make check:
# it exercises the full instrumented workload path without committing
# a result file.
bench-obs-smoke:
	$(GO) run ./cmd/rexpobsbench -scale 0.01 -rounds 1 -out -

# Single-mutex vs RWMutex vs sharded throughput under the modeled
# I/O-bound regime (see cmd/rexpbench/concurrent.go).
bench-shard:
	$(GO) run ./cmd/rexpbench -throughput -shardout BENCH_shard.json

# Hash vs speed-band shard partitioning on a spatially-correlated
# mixed-speed workload: shard visits, pruning ratio, query throughput,
# and a result-set equality check (see cmd/rexpbench/partition.go).
bench-partition:
	$(GO) run ./cmd/rexpbench -partitionbench -partout BENCH_partition.json

# A fast pass of the partition comparison for make check: it exercises
# loading, re-routing, pruning and the equality check without
# committing a result file.
bench-partition-smoke:
	$(GO) run ./cmd/rexpbench -partitionbench -objects 2000 -duration 0.2 -quiet -partout -

# Update throughput under each durability policy — none (legacy), WAL
# with batched fsync, WAL with fsync-per-commit — plus the WAL traffic
# each one generates (see cmd/rexpbench/durability.go).
bench-wal:
	$(GO) run ./cmd/rexpbench -durability -walout BENCH_wal.json

# A fast pass of the durability comparison for make check: it exercises
# the WAL append/commit/checkpoint path under all three policies
# without committing a result file.
bench-wal-smoke:
	$(GO) run ./cmd/rexpbench -durability -objects 2000 -duration 0.4 -quiet -walout - >/dev/null

# Read-path scaling: locked (RWMutex) vs snapshot reads across reader
# worker counts, readers-only and mixed with a writer whose per-op
# stall p50/p99 is sampled (see cmd/rexpbench/readscale.go).  The
# -guardmin 0.95 regression guard fails the run if the snapshot path's
# single-threaded throughput drops more than 5% below the locked
# baseline's.
bench-read:
	$(GO) run ./cmd/rexpbench -readscale -iolat 0 -duration 2 -guardmin 0.95 -readout BENCH_readpath.json

# A fast pass of the read-scaling sweep for make check: it exercises
# both read paths, the sharded fan-out and the guard comparison without
# committing a result file.
bench-read-smoke:
	$(GO) run ./cmd/rexpbench -readscale -objects 2000 -duration 0.2 -iolat 0 -readworkers 1,2 -guardmin 0.85 -quiet -readout - >/dev/null

# The update-path kernels with allocation counts: the near-optimal TPBR
# on a warm hull workspace (0 allocs/op) and the steady-state
# delete-and-reinsert of a 20k-object tree.  100 iterations keep it a
# smoke test; raise -benchtime for numbers worth comparing.
bench-kernel-smoke:
	$(GO) test -run '^$$' -bench 'NearOptimal|UpdateKernel' -benchmem -benchtime 100x ./internal/hull ./internal/core

# What an online reshard costs the serving path: the same mixed
# query/update load measured in steady state and again while the index
# live-reshards to a speed-banded layout, plus the cutover's exclusive
# mutation stall (see cmd/rexpbench/livereshard.go and the
# ARCHITECTURE.md "Live reshard" section).
bench-reshard:
	$(GO) run ./cmd/rexpbench -livereshard -objects 20000 -duration 2 -iolat 0 -reshardout BENCH_reshard.json

# A fast pass of the live-reshard comparison for make check: it
# exercises the snapshot scan, dual-apply window, backfill, verify and
# cutover under concurrent load without committing a result file.
bench-reshard-smoke:
	$(GO) run ./cmd/rexpbench -livereshard -objects 3000 -duration 0.3 -iolat 0 -quiet -reshardout - >/dev/null

# Compares tracing-disabled vs tracing-enabled throughput: the
# always-on (recorder off) cost must stay under the same <2% budget as
# the base instrumentation; the flight-recorder-on cost is reported for
# information (see cmd/rexpobsbench/trace.go).
bench-trace:
	$(GO) run ./cmd/rexpobsbench -trace -out BENCH_trace.json

# A fast pass of the tracing benchmark for make check: it exercises the
# traced query/update paths and the flight recorder without committing
# a result file.
bench-trace-smoke:
	$(GO) run ./cmd/rexpobsbench -trace -scale 0.005 -rounds 1 -out - >/dev/null

# The README "Serving" quickstart as a test: rexpgen a workload, serve
# it with rexpd, ingest through rexpbench -remote -replay, query over
# HTTP, scrape /metrics, SIGTERM, assert a clean drain (see
# cmd/rexpd/main_test.go).
serve-smoke:
	$(GO) test ./cmd/rexpd -run 'TestServeSmoke|TestDrainNoAckedLossAcrossProcess' -count 1 -v

# Serving-layer throughput: spawn rexpd, drive concurrent mixed
# update/query HTTP load, SIGTERM it, and record sustained updates/sec
# and query latency percentiles (see cmd/rexpbench/remote.go).
bench-serve: bin/rexpd
	$(GO) run ./cmd/rexpbench -spawn bin/rexpd -objects 20000 -workers 8 -duration 5 -serveout BENCH_serve.json

# A fast pass of the serving bench for make check: it exercises spawn,
# preload, mixed load and the SIGTERM drain without committing a file.
bench-serve-smoke: bin/rexpd
	$(GO) run ./cmd/rexpbench -spawn bin/rexpd -objects 2000 -workers 4 -duration 0.5 -quiet -serveout - >/dev/null

bin/rexpd: FORCE
	@mkdir -p bin
	$(GO) build -o bin/rexpd ./cmd/rexpd

# The replication stream end to end: cold-follower catch-up MB/s,
# steady-state apply lag under a continuous leader update stream, and
# the leader's throughput cost of feeding a tailing follower (see
# cmd/rexpbench/replbench.go).
bench-repl:
	$(GO) run ./cmd/rexpbench -replbench -objects 20000 -duration 2 -replout BENCH_repl.json

# A fast pass of the replication bench for make check: it exercises the
# snapshot stream, bootstrap, tail apply and the lag sampler without
# committing a result file.
bench-repl-smoke:
	$(GO) run ./cmd/rexpbench -replbench -objects 3000 -duration 0.3 -quiet -replout - >/dev/null

# The replication fault-injection matrix under the race detector:
# follower/leader crashes at every stage of the stream, torn wire
# frames, disconnect storms, retention overruns and concurrent reads
# during tail apply — each must end fingerprint-identical to the leader
# or fail loudly (see internal/repl/e2e_test.go).
fault-matrix:
	$(GO) test -race ./internal/repl -run 'TestRepl' -count 1

FORCE:

clean:
	rm -f BENCH_obs.json BENCH_shard.json BENCH_partition.json BENCH_wal.json BENCH_readpath.json BENCH_reshard.json BENCH_trace.json BENCH_serve.json BENCH_repl.json
	rm -rf bin
