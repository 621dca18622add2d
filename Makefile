GO ?= go

.PHONY: all build test vet lint fmt race vulncheck fuzz-smoke bench-smoke bench-baseline bench-record bench-e2e bench-decomp bench-kernel allocbudget-check check bench chaos

# The checked-in per-PR benchmark record (bench-record writes BENCH_$(PR).json).
PR ?= 10

all: check

build:
	$(GO) build ./...

# Fails when any file needs gofmt; CI runs the same gate.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Repo-specific invariants (sorted adjacency, map-order determinism,
# telemetry nil guards, goroutine lifecycle, lock balance, hot-path
# allocations, suppression hygiene), test files included. See DESIGN.md §9
# and `go run ./cmd/mcevet -list`.
lint: vet
	$(GO) run ./cmd/mcevet ./...

# The committed hot-path allocation budget must match the tree:
# regenerating .mcevet/allocbudget.json has to be a no-op, or a hot
# allocation changed without review (DESIGN.md §9).
allocbudget-check:
	$(GO) run ./cmd/mcevet -update-allocbudget
	git diff --exit-code .mcevet/allocbudget.json

# The whole tree runs under the race detector: the cluster runtime and the
# engine are the hot spots, but satellite packages spawn goroutines too.
race:
	$(GO) test -race -count=1 ./...

# Known-vulnerability scan, best effort: the tool or the vuln DB may be
# unavailable in offline/sandboxed builds, which must not fail the gate.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vulncheck: govulncheck failed (offline vuln DB or findings above); not failing the build"; \
	else \
		echo "vulncheck: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Short pass over each fuzz target (go test -fuzz accepts one target at a
# time, so they are spelled out). CI runs this recipe; the root package's
# TestFuzzSmokeListsEveryTarget fails when a func Fuzz* is missing here.
fuzz-smoke:
	$(GO) test -run=Fuzz -fuzz=FuzzReader -fuzztime=10s ./internal/cliqstore
	$(GO) test -run=Fuzz -fuzz=FuzzReadEdgeList -fuzztime=10s ./internal/gio
	$(GO) test -run=Fuzz -fuzz=FuzzDetect -fuzztime=10s ./internal/community
	$(GO) test -run=Fuzz -fuzz=FuzzReadTriples -fuzztime=10s ./internal/gio
	$(GO) test -run=Fuzz -fuzz=FuzzLoadMatchesReference -fuzztime=10s ./internal/gio
	$(GO) test -run=Fuzz -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/runlog
	$(GO) test -run=Fuzz -fuzz=FuzzLevelLog -fuzztime=10s ./internal/runlog
	$(GO) test -run=Fuzz -fuzz=FuzzIndexOpen -fuzztime=10s ./internal/cliqdb
	$(GO) test -run=Fuzz -fuzz=FuzzFrameReader -fuzztime=10s ./internal/durable
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeAscending -fuzztime=10s ./internal/durable
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeCSR -fuzztime=10s ./internal/durable
	$(GO) test -run=Fuzz -fuzz=FuzzSubproblem -fuzztime=10s ./internal/mcealg
	$(GO) test -run=Fuzz -fuzz=FuzzGrowMatchesReference -fuzztime=10s ./internal/decomp
	$(GO) test -run=Fuzz -fuzz=FuzzParseResult -fuzztime=10s ./internal/cluster
	$(GO) test -run=Fuzz -fuzz=FuzzParseTask -fuzztime=10s ./internal/cluster

# Crash-recovery chaos: the coordinator is SIGKILLed at randomized points and
# must resume to the exact clique set (chaos_resume_test.go), and the index
# compiler is SIGKILLed mid-compile and must leave the live index absent or
# byte-identical, then self-heal to the control bytes
# (internal/cliqdb/chaos_compile_test.go) — alongside the fault-injection
# cluster chaos tests. Runs under -race; MCE_CHAOS=1 arms the kill-based
# tests, MCE_CHAOS_ARTIFACTS collects the journal and level logs on failure.
chaos:
	MCE_CHAOS=1 $(GO) test -race -count=1 -run 'Chaos|Resume' . ./internal/cluster ./internal/core ./internal/cliqdb ./cmd/mcefind

# The CI benchmark gate: deterministic workload, machine-normalized timing,
# ±30% tolerance against the checked-in baseline (cmd/mcebench/smoke.go).
bench-smoke: build
	$(GO) run ./cmd/mcebench -smoke -out BENCH_$(PR).json -baseline .github/bench-baseline.json

# Refresh the baseline after an intentional performance change.
bench-baseline: build
	$(GO) run ./cmd/mcebench -smoke -smoke-runs 5 -out .github/bench-baseline.json

# Check in the per-PR benchmark record at the repo root (BENCH_<PR>.json),
# the running history of what each stacked PR did to the smoke workload.
bench-record: build
	$(GO) run ./cmd/mcebench -smoke -out BENCH_$(PR).json

# The repository benchmark (BENCHMARK.json): four end-to-end workloads,
# built and run from this checkout; see bench/README.md. Takes minutes, so
# it is not part of `check`.
bench-e2e:
	bash bench/run.sh

# The decomposition's own Go benchmarks on a Holme–Kim graph, n = 20 000,
# m = 56 (one package per run): the induction kernel; BLOCKS whole, its
# serial grow — at m = 56 and at m = 299, the block sizes of social_sparse and
# durable_cluster, each beside the rescan reference it replaced — and its
# worker-side materialise; and the same plan through a
# LocalExecutor at widths 1 and 2 (blocks/s: the dispatch cost; B/op and
# allocs/op: what carrying the cliques costs — the flat family's numbers),
# behind the gate that a run's allocations track blocks, not cliques.
bench-decomp:
	$(GO) test -run '^$$' -bench 'BenchmarkInduced$$' -benchmem ./internal/graph
	$(GO) test -run '^$$' -bench 'Benchmark(Blocks|Grow|Materialise)$$' -benchmem ./internal/decomp
	$(GO) test -count=1 -run 'TestFindMaxCliquesAllocsTrackBlocks$$' -bench 'BenchmarkLocalExecutor$$' -benchmem ./internal/core

# The MCE kernel's own Go benchmarks: the recursion alone on the 4×3 grid
# (ns per recursion node), and BLOCK-ANALYSIS from one warm analyzer over a
# social_sparse-shaped plan (one package per run).
bench-kernel:
	$(GO) test -run '^$$' -bench 'BenchmarkKernel$$' -benchmem ./internal/mcealg
	$(GO) test -run '^$$' -bench 'BenchmarkAnalyzeBlocks$$' -benchmem ./internal/decomp

check: build fmt lint allocbudget-check test race vulncheck bench-smoke

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
