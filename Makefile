GO ?= go

.PHONY: build test check bench bench-diff crash race model fuzz ingest part fmt vet staticcheck examples trace-demo size

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge gate: tier-1 build + gofmt + vet + static analysis +
# tests with coverage in shuffled order (catches order-dependent tests
# and tracks the covered fraction), then the full suite again under the
# race detector with caching disabled (the crash-point harness sweep in
# crash_test.go runs in both passes). The shuffled pass includes the
# fixed-seed model run: TestModel (40 seeds) and TestModelCrashRecovery
# (12 crash-recovery cycles) cross-check the engine against the
# reference model on every gate — the generated workloads include
# read-only snapshot transactions, so snapshot visibility is
# cross-checked against the oracle's captured committed state here too.
# The partitioned suite rides in both passes at its small default shape:
# TestModelPart/TestModelPartCrash (15/8 seeds), the TestCrashPart2PC
# two-phase-commit matrix, and the TestStressPartConcurrent2PC storm;
# `make part` runs the same suite at soak depth. Both passes run at
# -cpu 1,2,4: a 1-CPU pass never interleaves goroutines the way the
# engine's users do, and the race detector only reports races in
# interleavings it actually executes. The benchmark module (bench/, its own
# go.mod) is tested last so a change to an engine type it reads
# (dmx.ForeignServer, MetricsSnapshot, storage-method names) fails this
# gate instead of the benchmark pipeline. examples runs the six example
# programs; tracedemo among them is the one end-to-end self-read of the
# debug server (/metrics, /traces, /healthz). Every package
# microbenchmark runs once, so a Benchmark that no longer builds or
# fails its own checks fails the gate; the pass takes seconds.
check: build fmt vet staticcheck
	$(GO) test -shuffle=on -cover -cpu 1,2,4 ./...
	$(GO) test -race -count=1 -cpu 1,2,4 ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...
	$(MAKE) examples
	cd bench && $(GO) test ./...

# staticcheck (honnef.co/go/tools) is part of the check gate — the tree
# is clean under it. Where the binary is absent (an image with no network
# cannot install it) the step says so and the rest of the gate still runs.
# Install with:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck: not installed — SKIPPED"; fi

# examples runs every example program and stops at the first non-zero
# exit: they are the executable reproductions of the paper's Figures 1 and
# 2 and the only users of some facade calls.
EXAMPLES = quickstart bank spatial publish federation tracedemo
examples:
	@for e in $(EXAMPLES); do echo "== examples/$$e"; $(GO) run ./examples/$$e >/dev/null || exit 1; done

# trace-demo smoke-tests the observability surface end to end: traced
# workload, debug HTTP server, and a self-read of /metrics, /traces, and
# /healthz (non-zero exit on any malformed endpoint). Part of `examples`.
trace-demo:
	$(GO) run ./examples/tracedemo

# race is the deep concurrency soak: the multi-worker stress harness
# (stress_test.go) at its larger shape — more workers, more operations,
# more crash-restart rounds — under the race detector. Then, repeated under
# the race detector, the buffer pool's concurrent recycling test (a frame
# recycled for another page while a caller still used it is the pool's
# concurrency hazard, and concurrent transactions pin pages concurrently)
# the many-to-many join through every join strategy, two open cursors of
# one bound plan, each on its own binding, one cached plan rebound across
# executions against fresh plans, a snapshot index-then-fetch read
# in runs while a writer changes the keys it holds, the heap's pending
# version lists ended by commit, abort, savepoint rollback and a failed
# commit, two writers beside a snapshot reader, and relation handles,
# attachment instances and the relation list read while another
# transaction creates and drops an index.
race:
	DMX_STRESS_DEEP=1 $(GO) test -race -count=1 -run 'TestStress' -v .
	$(GO) test -race -count=3 -run 'TestPoolConcurrentRecycle' ./internal/buffer/
	$(GO) test -race -count=3 -run 'TestDuplicateKeyJoinWaysAgree|TestOpenCursorsOfOnePlan|TestRebindEqualsFreshPlan' ./internal/plan/
	$(GO) test -race -count=3 -run 'TestSnapshotAccessFetchConcurrentWriter|TestPendingVersionsEndWithTheirTransaction|TestPendingVersionsConcurrentWriters' ./internal/sm/heap/
	$(GO) test -race -count=3 -run 'TestRelationSlotConcurrentDDL' ./internal/core/

# model is the differential-testing soak: many more generated workloads
# than the check gate runs, engine vs reference model, including
# file-backed crash-recovery cycles. Override the ranges to go deeper:
#   make model DMX_MODEL_SEEDS=2000 DMX_MODEL_CRASH_SEEDS=500
DMX_MODEL_SEEDS ?= 500
DMX_MODEL_CRASH_SEEDS ?= 100
model:
	DMX_MODEL_SEEDS=$(DMX_MODEL_SEEDS) DMX_MODEL_CRASH_SEEDS=$(DMX_MODEL_CRASH_SEEDS) \
		$(GO) test -count=1 -run 'TestModel$$|TestModelCrashRecovery' -v .

# fuzz runs the coverage-guided fuzz targets for FUZZTIME each (their seed
# corpora already run under plain `go test`): FuzzParse holds the SQL lexer
# and parser to "reject, never panic" and to the slot round trip — a
# statement's key with its parameters written back in lexes to that key.
# FuzzDecode holds the stored-predicate decoder to "reject, never panic":
# what it accepts re-encodes byte-identically, evaluates and compiles.
# FuzzMatch holds a compiled filter to the tree walker on any predicate and
# record: the same answer, an error on the same records, and an error or
# the whole record's answer on a truncated one. FuzzDecodeDefs and
# FuzzDecodeEntry hold the attachment descriptor and log payload decoders
# to "reject, never panic": what they accept re-encodes to bytes that
# decode to the same value. FuzzDecodeMod holds the storage-method log
# payload decoder, which every method's replay reads, to "reject, never
# panic" with what it accepts re-encoding to identical bytes.
# FuzzDecodeRequest and FuzzDecodeResponse hold the remote wire protocol's
# payload decoders to the same bar, and FuzzDecodeRelDesc the relation
# descriptor decoder that catalog log records and checkpoints read.
# FuzzOpenLog opens and recovers a log file of arbitrary bytes: never a
# panic or a hang, the file cut to a prefix of the input, and that prefix
# reopening to the same records. Each of its runs forces a file, so it
# shrinks a new input for 5s, not the default 60s that would idle it.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/ddl
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/expr
	$(GO) test -run '^$$' -fuzz '^FuzzMatch$$' -fuzztime $(FUZZTIME) ./internal/expr
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDefs$$' -fuzztime $(FUZZTIME) ./internal/att/attutil
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMod$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRelDesc$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run '^$$' -fuzz '^FuzzOpenLog$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/wal

# crash runs the full deterministic crash-point fault-injection matrix
# (every site, later-hit and torn-write variants, plus the LSM ingest
# matrix over the flush and compaction sites) under the race detector.
crash:
	DMX_CRASH_DEEP=1 $(GO) test -race -count=1 -run 'TestCrash' -v .

# ingest is the LSM storage-method soak: seeded differential fuzzing of
# insert/update/delete/tombstone workloads across flush and compaction
# boundaries (engine vs reference oracle, including crash-recovery
# cycles at the lsm.flush and lsm.compact sites), plus the deep LSM
# crash matrix. Override the seed ranges to go deeper:
#   make ingest DMX_INGEST_SEEDS=2000 DMX_INGEST_CRASH_SEEDS=500
DMX_INGEST_SEEDS ?= 400
DMX_INGEST_CRASH_SEEDS ?= 100
ingest:
	DMX_INGEST_SEEDS=$(DMX_INGEST_SEEDS) DMX_INGEST_CRASH_SEEDS=$(DMX_INGEST_CRASH_SEEDS) 		DMX_CRASH_DEEP=1 $(GO) test -count=1 -run 'TestModelIngest|TestCrashLSM' -v .

# part is the partitioned storage-method soak: seeded differential
# fuzzing of relation x hash-sharded over three foreign servers (every
# scan merges per-shard cursors, nearly every commit runs two-phase),
# crash-recovery cycles at the part.decide site, the deterministic 2PC
# crash matrix including commit-ack loss, and the concurrent 2PC storm
# under the race detector. Override the seed ranges to go deeper:
#   make part DMX_PART_SEEDS=2000 DMX_PART_CRASH_SEEDS=500
DMX_PART_SEEDS ?= 400
DMX_PART_CRASH_SEEDS ?= 100
part:
	DMX_PART_SEEDS=$(DMX_PART_SEEDS) DMX_PART_CRASH_SEEDS=$(DMX_PART_CRASH_SEEDS) \
		DMX_CRASH_DEEP=1 DMX_STRESS_DEEP=1 \
		$(GO) test -race -count=1 -run 'TestModelPart|TestCrashPart|TestStressPart' -v .

# bench runs the repository's benchmark (BENCHMARK.json, bench/README.md):
# all five workloads, untraced, one line per metric.
bench:
	bash bench/run.sh

# bench-diff is the regression gate over the benchmark ledger: one complete
# run of this tree per seed into .bench_build/out, then compared with the
# committed baseline runs under BENCHMARK.json's bounds. Exits non-zero when
# any (workload, metric) is `worse` or any run had a failed op.
BENCH_SEEDS ?= 1 2 3 4 5
bench-diff:
	rm -rf .bench_build/out
	for s in $(BENCH_SEEDS); do bash bench/run.sh --seed $$s --out .bench_build/out || exit 1; done
	bash bench/run.sh -compare \
		$$(ls bench/baseline/a-*.json | paste -sd, -) \
		$$(ls .bench_build/out/result-*.json | paste -sd, -)

# size prints the line counts ROADMAP's "Sizes" block tracks: non-test Go
# lines outside bench/, test lines outside bench/, and Go lines in bench/.
GOFILES = find . -name '*.go' -not -path './.*' -not -path './bench/*'
size:
	@printf '%6d non-test Go lines outside bench/\n' $$($(GOFILES) ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf '%6d test lines\n' $$($(GOFILES) -name '*_test.go' -exec cat {} + | wc -l)
	@printf '%6d lines in bench/\n' $$(find bench -name '*.go' -exec cat {} + | wc -l)

# fmt fails when any file is not gofmt-formatted (and names it).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The repository root is for correctness suites (crash_*, model, mvcc,
# stress, telemetry, claims); timing lives in bench/. Package-local
# microbenchmarks (internal/btree's) stay where they are.
vet:
	$(GO) vet ./...
	@! grep -ln '^func Benchmark' *_test.go || { echo "root *_test.go declares a Benchmark: timing belongs in bench/"; exit 1; }
