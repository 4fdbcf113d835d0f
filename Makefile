# Development targets. `make check` is the default gate: build + vet +
# full tests + race detector over the concurrent subsystems (the serving
# layer, the BSP runtime, and the library path that shares their machine
# pool) + a compile of the benchmark module.

GO ?= go

.PHONY: all build test vet race bench-build check loc chaos chaos-fleet fuzz lint vuln bench bench-bsp bench-kernels bench-service bench-transport bench-fleet bench-gate ab profile-transport load-smoke transport camcd

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The service layer and BSP runtime are heavily concurrent; they are
# race-checked on every default run. So are cc, core and the root
# package: library callers share bsp's machine pool with the daemon, and
# every CC rank reads its block of the caller's edge array in place —
# a write to it is a data race between machines. -short skips only the
# root package's minute-scale single-caller stress tests; its
# concurrent-callers test always runs. approxcut and sparsify draw into
# union-finds from the one pool concurrent queries share; mincut's trial
# arenas come from a sync.Pool shared the same way and its dynamic trial
# scheduling claims chunks across ranks, on streams from rng (-short
# there only shrinks the seed and trial counts of the statistical
# admission tests and the bounded-trial contract tests). graph
# is where those shared pools live: the UnionFind and Remap every
# concurrent query checks out are handed between goroutines there. trace's
# Collector is the one mutex every query of a process crosses, and
# backoff's generator is drawn from request goroutines. tenant's quota
# buckets and the planner's decision counters are taken under a mutex
# by every request; dist's collectives run on every rank's goroutine
# over slices the ranks share; sort's scratch pools are shared by all of
# them. perfmodel is fitted once, at startup, not from request goroutines;
# it stays on the list because every planner decision reads its models
# and its tests are cheap.
race:
	$(GO) test -race ./internal/service/... ./internal/bsp/... ./internal/cc/... ./internal/core/... \
		./internal/approxcut/... ./internal/sparsify/... ./internal/graph/... \
		./internal/trace/... ./internal/backoff/... ./internal/tenant/... \
		./internal/planner/... ./internal/dist/... ./internal/sort/... ./internal/perfmodel/...
	$(GO) test -race -short . ./internal/mincut/... ./internal/rng/...

# benchmark/ is its own module (`replace repro => ../`), so `go build
# ./...` and `go vet ./...` above never see it — yet it imports service,
# planner, shard, transport and bsp directly. Compile and vet it here so
# an internal-API change cannot break the benchmark invisibly.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) build -o /dev/null .

check: build vet test race bench-build

# Non-test / test Go lines per package of the root module, plus the
# ROADMAP item 9 budget line (service + shard + transport + benchgate)
# and the item 6 line (planner + perfmodel).
loc:
	@bash scripts/loc.sh

# Chaos suite: fault injection, cancellation races, abort propagation, and
# degraded-result delivery, run twice under the race detector to shake
# out ordering-dependent bugs. Set CHAOS_SNAPSHOT=/path.json to export
# the outcome ledger (CI archives it as an artifact).
chaos:
	$(GO) test -race -count=2 -run 'Chaos|Abort|Cancel|Fault|RunCtx|Reuse' \
		./internal/service/ ./internal/bsp/
	$(GO) test -race -count=2 ./internal/faults/

# Fleet self-healing drill: kill -9 one worker of a live 3-process
# fleet under loadgen traffic and assert the degraded 503 + Retry-After
# contract, the supervised respawn with a bumped incarnation, and
# byte-identical graph re-replication.
chaos-fleet:
	bash scripts/chaos_fleet.sh

# Every Fuzz* target in the module (union-find, frame parser, handshake
# parsers, min-cut certificate, the library's connected-components input
# path, the upload loaders FuzzReadEdgeList and FuzzReadSNAP, the query
# body FuzzQueryRequest, the fleet catch-up message FuzzCatchupSync, the
# operator-side tenant config FuzzTenantConfig and fault spec
# FuzzFaultSpec) for 10s each; their seed corpora already run under
# `make test`.
fuzz:
	GO=$(GO) bash scripts/fuzz.sh

# Static analysis beyond vet. Uses golangci-lint when installed (CI
# always has it); locally it degrades to a hint rather than failing.
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not installed; see .golangci.yml (CI runs it)"; \
	fi

# Known-vulnerability scan. Like lint, degrades to a hint when the tool
# is absent (CI installs it).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed (go install golang.org/x/vuln/cmd/govulncheck@latest); CI runs it"; \
	fi

bench:
	$(GO) run ./cmd/bench -exp all -quick

# Every bench-* target below also rewrites its package's BENCH_*.json in
# the one internal/benchsnap schema: a flat metric list whose kind
# (exact | count | ratio | info) is the gate bench-gate applies.

# BSP hot-path microbenchmarks (benchstat-comparable output; also writes
# internal/bsp/BENCH_bsp.json: exact supersteps / volume / result per
# (algorithm, p), wall clock as info).
bench-bsp:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/bsp/

# Kernel-layer microbenchmarks: radix sort vs comparison sort, the fused
# sort+combine, arena vs clone-per-node Karger–Stein, dense-vs-map
# remaps, and the rank-free union-find vs the textbook one (also writes
# internal/kernels/BENCH_kernels.json).
bench-kernels:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/kernels/

# Serving-layer benchmarks: warm-plan vs cold repeated-query throughput,
# static vs dynamic trial scheduling under an injected straggler, and
# the planner set (the planner-scheduled CC kernel vs the
# always-label-propagation baseline on a high-diameter path,
# win-rate/prediction accounting as info). One TestMain writes both
# internal/service/BENCH_service.json and
# internal/service/BENCH_planner.json.
bench-service:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/service/

# Cross-fabric benchmarks: the same all-to-all superstep through the
# in-process fabric and the TCP-loopback fabric at p in {2,4,8} ×
# {64,1024,65536} words/peer. The
# transport TestMain runs the full sweep itself and writes
# internal/transport/BENCH_transport.json, so the named run is just the
# minimal trigger.
bench-transport:
	$(GO) test -run='^$$' -bench='ExchangeLocal/p=2/w=64$$' ./internal/transport/

# Profile the TCP wire path: CPU, mutex, and block profiles of the p=4
# loopback exchange loop (override BENCH/BENCHTIME in the environment).
profile-transport:
	bash scripts/profile_transport.sh

# Fleet self-healing scorecard: run the scripted kill/failover/respawn
# scenario in-process and write internal/shard/BENCH_fleet.json (exact
# scenario counts; detection/recovery wall clock as info).
bench-fleet:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/shard/

# Regression gate: save the tracked BENCH_*.json baselines aside, re-run
# every bench suite, and fail if a metric regressed past the gate its
# committed baseline declares (exact: any change; count: 15%; ratio:
# 40%; info: never) or vanished. BENCHTIME tunes the re-run cost.
bench-gate:
	bash scripts/bench_gate.sh

# Paired A/B of the end-to-end benchmark: AB_BASE (any revision) against
# this working tree, AB_PAIRS pairs alternating which side runs first,
# AB_ARGS handed to benchmark/run.sh. Prints both medians, the base IQR
# and the win count per end-to-end metric.
AB_BASE ?= HEAD
AB_PAIRS ?= 10
AB_ARGS ?= --workload fleet_tcp
ab:
	bash scripts/ab.sh $(AB_BASE) $(AB_PAIRS) -- $(AB_ARGS)

# Loadgen smoke: deterministic mixed traffic against a single-process
# daemon and a 3-process fleet; writes BENCH_load_{single,fleet}.json.
load-smoke:
	bash scripts/load_smoke.sh

# Multi-process tier: the transport fabric, the shard serving tier, the
# cross-fabric kernel test (every kernel over loopback TCP meshes, ledgers
# checked rank by rank), and the 3-process fleet e2e (spawns real camcd
# processes), race-checked.
transport:
	$(GO) test -race -count=1 ./internal/transport/ ./internal/shard/ ./internal/kernels/ ./cmd/camcd/

camcd:
	$(GO) run ./cmd/camcd
