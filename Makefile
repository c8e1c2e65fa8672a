GO ?= go

.PHONY: all build test test-times vet race lint lint-json fmt-check check chaos chaos-migrate chaos-group chaos-overload bench bench-smoke bench-planner bench-mem fuzz-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# test-times runs the suite once (-count=1, so nothing comes from the
# test cache) and prints each package's wall time and the 15 slowest
# top-level tests, slowest first: where tier-1's wall time goes. It
# exits with go test's status.
test-times:
	@json=$$(mktemp); \
	$(GO) test -json -count=1 ./... > $$json; status=$$?; \
	echo "package wall time (s):"; \
	jq -r 'select(.Test == null and (.Action == "pass" or .Action == "fail")) | "\(.Elapsed)\t\(.Action)\t\(.Package)"' $$json | sort -rn; \
	echo "15 slowest tests (s):"; \
	jq -r 'select(.Test != null and (.Test | contains("/") | not) and (.Action == "pass" or .Action == "fail")) | "\(.Elapsed)\t\(.Action)\t\(.Package) \(.Test)"' $$json | sort -rn | head -15; \
	rm -f $$json; exit $$status

# lint runs qcpa-lint, the repo's own go/analysis suite: the three
# per-package analyzers (detrange, detsource, atomicfield) plus the
# four whole-program call-graph analyzers (lockgraph, ctxflow,
# leakcheck, viewmutate) — see DESIGN.md §9. Analyzers run in parallel
# (bounded by GOMAXPROCS); output order is deterministic. Zero findings
# is the contract; waivers are //qcpa:* comments with a stated reason.
lint:
	$(GO) run ./cmd/qcpa-lint ./...

# lint-json emits the findings as a JSON array (empty run prints []).
# CI diffs this against the committed empty baseline so any new finding
# fails the build with a readable annotation.
lint-json:
	$(GO) run ./cmd/qcpa-lint -json ./...

# fmt-check fails when any Go file is not gofmt-formatted, listing the
# files gofmt would change.
fmt-check:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# check is the CI gate: vet, lint, build, then the full suite under the
# race detector (group commit and the server are concurrent by
# construction).
check: vet lint build race

# chaos runs the fault-tolerance acceptance tests under the race
# detector: backends killed and revived while a mixed workload runs,
# asserting zero failed requests and bit-identical replicas after
# catch-up. Kept separate from check so its timing-sensitive load loop
# gets a dedicated timeout.
chaos:
	$(GO) test -race -run 'Chaos|Recover|Failover|RedoLog' -timeout 120s ./internal/cluster/

# chaos-migrate runs the reallocation suite (every TestMigrateLive* and
# TestResizeLive*) under the race detector: the placement and data
# contract of each reallocation shape against the matching's plan, live
# migrations and resizes with concurrent traffic, delta capture and
# delta-log overflow under injected writes, a backend killed mid-copy
# (the migration must abort cleanly or complete — never leave a partial
# replica serving, nor the backends of a failed scale-out), and prepared
# handles following the placement a migration installs.
chaos-migrate:
	$(GO) test -race -run 'MigrateLive|ResizeLive|ResizeSameCount|PreparedRerouteOnMigration' -count=2 -timeout 120s ./internal/cluster/

# chaos-group runs the group-commit suite under the race detector:
# backends killed mid-round while concurrent writers stream batched
# ROWA rounds (no half-committed group may ever become visible), a
# pinned snapshot view held across a live-migration cutover, concurrent
# non-commutative writers (replicas must stay bit-identical), and
# writers racing Close (each write returns its result or "cluster:
# closed"). It runs on 1 scheduler thread, where writers' turns never
# overlap, and on 4.
chaos-group:
	$(GO) test -race -run 'GroupCommit|GroupChaos|WritesRacingClose|ApplyRound|LongScan|PinnedView' -count=2 -cpu 1,4 -timeout 120s ./internal/cluster/ ./internal/sqlmini/

# chaos-overload runs the wire-path overload suite under the race
# detector: a request swarm at several times admission capacity, every
# request resolving as exactly one of success, typed shed (with a
# retry-after hint), or typed drain — zero silent drops — plus graceful
# drain with goroutine-leak and out-of-order pipelining checks.
chaos-overload:
	$(GO) test -race -run 'Overload|Drain|Pipelin|Panic|TooLarge|Oversized|Deadline|Circuit|Retr|Breaker|ConnLimit' -count=2 -timeout 120s ./internal/server/

# bench runs the repo's benchmark (BENCHMARK.json, benchmark/README.md):
# four seeded workloads behind a loopback listener, every response
# checked, medians with recorded spread. All performance statements are
# made in its metrics.
bench:
	bash benchmark/run.sh

# bench-smoke compiles and runs every benchmark for exactly one
# iteration across all packages, so benchmark code can never rot. Wired
# into CI; measurements come from `make bench` instead.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# bench-planner runs the two planner acceptance micros at real
# benchtime with -benchmem (join ordering must beat textual order;
# a plan-cache hit must allocate less than half of a cold build —
# the ratio is pinned by TestPlanCacheHitAllocations), then the
# executor's: the 19 TPC-H templates at SF 0.01 and the 5 TPC-App reads
# at EB 3, one sub-benchmark per template (ns, B, allocs, rows scanned
# and collections per op) plus /pass for all of a suite — a pass is the unit of
# tpch-analytic work, and the per-template lines say which template a
# change of it came from — and the scan kernels' (a vector filter, the
# same under aggregates of bare columns, a GROUP BY of one INT column,
# whose dense range keys its groups by direct indexing, over lineitem;
# ns/row and B/op). Group keys the pk rule reduces through join key
# pairs are timed by BenchmarkTPCHPass/q3, /q18 and /q10 (each down to
# one integer). BenchmarkParse
# times Parse alone (tree and plan-cache key) over the TPC-App reads and
# TPC-H texts, apart from routing and execution. BenchmarkBulkInsert
# times the loads a live copy makes — 100,000 rows in one batch and in
# batches of 1,024, each filling the row store and the pk index's shards
# — and a cached pk read of the loaded table (/pk-probe).
bench-planner:
	$(GO) test -bench 'SqlminiJoinOrder|PlanCacheHit' -benchmem -run TestPlanCacheHitAllocations ./internal/sqlmini/
	$(GO) test -bench 'TPCHPass|TPCAppReads|ScanKernels|^BenchmarkParse$$|BulkInsert' -benchmem -run '^$$' ./internal/sqlmini/

# bench-mem says where the bytes of a query go without a hand-run
# profile: the top allocation sites by bytes (go tool pprof -top
# -sample_index=alloc_space, every allocation recorded) of 20 TPC-H
# passes (BenchmarkTPCHPass/pass; the profile also holds the SF 0.01
# load and the warm-up) and of 20,000 ad hoc TPC-App reads through the
# cluster (BenchmarkExecuteAdHoc). Profiles and test binaries go to a
# temporary directory, removed at the end.
bench-mem:
	@dir=$$(mktemp -d); \
	$(GO) test -run '^$$' -bench 'TPCHPass/pass$$' -benchtime 20x -benchmem -memprofile $$dir/tpch.mem -memprofilerate 1 -o $$dir/sqlmini.test ./internal/sqlmini/ && \
	$(GO) tool pprof -top -sample_index=alloc_space $$dir/sqlmini.test $$dir/tpch.mem | head -25 && \
	$(GO) test -run '^$$' -bench 'ExecuteAdHoc$$' -benchtime 20000x -benchmem -memprofile $$dir/adhoc.mem -memprofilerate 1 -o $$dir/cluster.test ./internal/cluster/ && \
	$(GO) tool pprof -top -sample_index=alloc_space $$dir/cluster.test $$dir/adhoc.mem | head -25; \
	status=$$?; rm -rf $$dir; exit $$status

# fuzz-smoke runs each fuzz target briefly against its seed corpus plus
# a few seconds of fresh inputs: the frame decoder must never panic on
# arbitrary bytes, any SQL text that parses must execute the same as
# a binding of its own literals (FuzzBindLiterals, seeded with the TPC-H
# and TPC-App templates), and the join, GROUP BY and DISTINCT key table
# must answer as a Go map of the keys' renderings on any program of
# gets and puts (FuzzKeyMap), and a compiled expression must answer
# what eval answers, value for value and error for error, on any tree
# of operators over columns, params and aggregates (FuzzCompiledExpr),
# and every read, dictionary-decided filter, GROUP BY and DISTINCT of a
# TEXT column must answer as the naive evaluator does while loads,
# INSERTs and UPDATEs build, extend and drop its chunks' dictionaries
# (FuzzTextDict), and a secondary index's hash member must answer every
# lookup of an INT, FLOAT or TEXT column — dense, sparse, at the ends of
# int64, NaNs, ±0, NULLs — as a Go map of the values' renderings does
# (FuzzIndexBuckets).
# CI runs this on every push; longer campaigns can raise -fuzztime
# locally.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 5s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzBindLiterals -fuzztime 5s ./internal/sqlmini/
	$(GO) test -run '^$$' -fuzz FuzzKeyMap -fuzztime 5s ./internal/sqlmini/
	$(GO) test -run '^$$' -fuzz FuzzCompiledExpr -fuzztime 5s ./internal/sqlmini/
	$(GO) test -run '^$$' -fuzz FuzzTextDict -fuzztime 5s ./internal/sqlmini/
	$(GO) test -run '^$$' -fuzz FuzzIndexBuckets -fuzztime 5s ./internal/sqlmini/

clean:
	$(GO) clean ./...
