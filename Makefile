# SQLB reproduction — build, test, and benchmark targets.

GO ?= go

# BENCH selects the regression benchmark set: the Rank/Select and
# matchmaking hot-path micro-benchmarks, the serial-vs-parallel Lab runs,
# the batched-vs-per-query mediation service path, the streaming
# timeline CSV writer (rows/sec, 0 allocs/row), the population-size curve
# (MediateBatch at 80 % load over 400 to 100k providers: ns/candidate and
# bytes/participant) and the 100k build (bytes/participant), and
# Definition 8 through the model's entrances (exact, bounded, the memo
# emptied, and 400 providers on live state), the result notification of
# a 400-wide Pq into the population's tracker rings, the serving regime
# `make profile` records (BenchmarkServePaperLoop), and the many-classes
# population of the repository benchmark's sim-narrow (one mediation over a
# class's ~16 providers, and the build with its bytes/participant).
# Override with `make bench BENCH=.` for the full suite.
BENCH ?= BenchmarkRank|BenchmarkSelectTopN|BenchmarkLab|BenchmarkMediatorAllocate|BenchmarkMatchmaking|BenchmarkServerMediate|BenchmarkTimelineCSV|BenchmarkSimulation|BenchmarkMediateScale|BenchmarkPopulationBuild100k|BenchmarkProviderIntention|BenchmarkIntentionsRange400|BenchmarkNotify400|BenchmarkServePaperLoop|BenchmarkMediateNarrow|BenchmarkPopulationBuildNarrow

# BENCH_COUNT repeats each benchmark -count times; tools/benchjson keeps one
# record per benchmark (median ns/op and metrics, min/max ns/op, run count).
# The default single run is fine for a quick look; use `make bench
# BENCH_COUNT=10` when a delta looks noisy and you want spread before
# believing it.
BENCH_COUNT ?= 1

# SERVE_JSON is where serve-bench drops the sqlb-serve steady-state report;
# bench embeds it into BENCH_results.json when present.
SERVE_JSON ?= artifacts/serving_10k.json

# COVER_MIN is the statement-coverage floor `make cover` enforces across
# ./... (mains and examples included at 0%). The recorded baseline is
# 78.7% (the sharded-engine PR brought cmd/sqlb-sim under test); the
# floor leaves ~3 points of slack for normal fluctuation while failing a
# PR that sheds test coverage.
COVER_MIN ?= 76
COVER_PROFILE ?= coverage.out

# FUZZTIME bounds each fuzz target of `make fuzz`.
FUZZTIME ?= 30s

# PROFILE_DIR is where `make profile` leaves the pprof files and their
# `go tool pprof -top` heads.
PROFILE_DIR ?= artifacts/profile

.PHONY: all build test race vet fmt-check cover fuzz bench bench-smoke serve-bench profile benchmark-selftest loc clean

all: vet fmt-check build test

build:
	$(GO) build ./...

# test prints per-package statement coverage alongside the results.
test:
	$(GO) test -cover ./...

# race covers the packages with real concurrency: the parallel experiment
# Lab, the mediator server, and the serving driver's worker pool. One
# simulation runs on one goroutine; the Lab's tests run many at once, which
# is where the simulator's code meets the race detector.
race:
	$(GO) test -race ./internal/experiments/... ./internal/mediator/... ./internal/matchmaking/... ./internal/serving/...

vet:
	$(GO) vet ./...

# cover runs the suite with a profile and gates on the recorded coverage
# floor (tools/covergate prints the per-package breakdown).
cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) ./...
	$(GO) run ./tools/covergate -profile $(COVER_PROFILE) -min $(COVER_MIN)

# fuzz runs the native Go fuzz targets, FUZZTIME each: the scenario parser
# (arbitrary bytes must never panic, and accepted documents must validate
# and re-parse identically), the pruning bounds of the ranking kernel
# (for arbitrary pi, ci, ω, ε neither pow-free bound is below Score), and
# every mediation entrance against a naive Algorithm 1 (whatever churn,
# clock, load, feedback, field writes, capability edits and SetPreference
# do between mediations, Mediator.Allocate, Server.Mediate and
# Server.MediateBatch decide and record what the reference does on a twin
# population: FuzzMediation, docs/ARCHITECTURE.md "Equivalence: one
# reference").
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzScoreBound -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzMediation -fuzztime $(FUZZTIME) ./internal/mediator

# fmt-check fails if any file needs gofmt — the godoc/format gate CI runs.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# bench writes BENCH_results.json (ns/op plus reported metrics) so future
# PRs have a perf trajectory to compare against. If serve-bench has left a
# steady-state serving report behind, it rides along under the "serving" key.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -count $(BENCH_COUNT) -benchmem . | $(GO) run ./tools/benchjson -out BENCH_results.json -serving $(SERVE_JSON)

# bench-smoke runs every benchmark bench records once (-benchtime 1x) and
# through tools/benchjson, so CI keeps the list bench records working; a
# failing benchmark fails the target. The numbers are not kept.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime 1x -benchmem . > BENCH_results.ci.txt
	$(GO) run ./tools/benchjson -out BENCH_results.ci.json < BENCH_results.ci.txt

# serve-bench measures the mediator-as-a-service throughput path at
# |P| = 10000: sqlb-serve drives an open-loop schedule against the live
# mediation server and writes the mediations/sec + latency-percentile
# report that bench then embeds into BENCH_results.json.
serve-bench:
	mkdir -p artifacts
	$(GO) run ./cmd/sqlb-serve -providers 10000 -consumers 200 -classes 20 -selectivity 0.05 \
		-qps 300 -batch 32 -warmup 2s -measure 8s -json $(SERVE_JSON)

# profile records where the two paper-scale front doors (Table 2 population,
# |Pq| = 400) spend their CPU, and prints the head of each profile; an
# optimisation starts from these files and EXPERIMENTS.md quotes the
# .top.txt heads. sim_paper is the simulator at 80 % load, the regime the
# paper studies. serve_paper is BenchmarkServePaperLoop: batches of 32
# through MediateBatch on the repository benchmark's virtual clock, which
# holds the population at the same 80 % load; it also records the
# allocation profile. serve_overload is sqlb-serve on the wall clock at
# 8000 qps, about 68 times the ~118 qps the population performs at 80 %
# load: every provider intention is deeply negative and nothing prunes, so
# read it as the overload regime, not the benchmark's.
PPROF_TOP = $(GO) tool pprof -top -nodecount 20
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/sqlb-sim ./cmd/sqlb-sim
	$(GO) build -o $(PROFILE_DIR)/sqlb-serve ./cmd/sqlb-serve
	$(PROFILE_DIR)/sqlb-sim -scale 1 -duration 600 -workload 0.8 -seed 1 -cpuprofile $(PROFILE_DIR)/sim_paper.cpu.pprof
	$(GO) test -run '^$$' -bench '^BenchmarkServePaperLoop$$' -benchtime 200000x -o $(PROFILE_DIR)/sqlb.test \
		-cpuprofile $(PROFILE_DIR)/serve_paper.cpu.pprof -memprofile $(PROFILE_DIR)/serve_paper.mem.pprof .
	$(PROFILE_DIR)/sqlb-serve -scale 1 -qps 8000 -batch 32 -workers 1 -queue 4096 -warmup 1s -measure 5s \
		-cpuprofile $(PROFILE_DIR)/serve_overload.cpu.pprof
	$(PPROF_TOP) $(PROFILE_DIR)/sqlb-sim $(PROFILE_DIR)/sim_paper.cpu.pprof | tee $(PROFILE_DIR)/sim_paper.cpu.top.txt
	$(PPROF_TOP) $(PROFILE_DIR)/sqlb.test $(PROFILE_DIR)/serve_paper.cpu.pprof | tee $(PROFILE_DIR)/serve_paper.cpu.top.txt
	$(PPROF_TOP) -sample_index=alloc_space $(PROFILE_DIR)/sqlb.test $(PROFILE_DIR)/serve_paper.mem.pprof | tee $(PROFILE_DIR)/serve_paper.mem.top.txt
	$(PPROF_TOP) $(PROFILE_DIR)/sqlb-serve $(PROFILE_DIR)/serve_overload.cpu.pprof | tee $(PROFILE_DIR)/serve_overload.cpu.top.txt

# benchmark-selftest vets and tests the repository benchmark (its own
# module under benchmark/, outside ./...) at smoke scale: metric names match
# BENCHMARK.json, runs are deterministic, --compare judges as documented.
#
# One test is skipped by name, and the target says so on every run:
# TestSmokeLayerTable asserts mediator.allocs_per_query >= 100 on
# serve-single (benchmark_test.go:210, "Mediate's fan-out allocates"), a pin
# on the goroutine fan-out Server.Mediate no longer has — it reads about 5
# now. benchmark/ is frozen outside benchmark-archetype PRs, so the
# assertion cannot be flipped here. Undo: the next benchmark-archetype PR
# flips it to an upper bound and deletes SELFTEST_SKIP (ROADMAP, "One
# mediation path").
SELFTEST_SKIP = TestSmokeLayerTable
benchmark-selftest:
	$(GO) -C benchmark vet ./...
	@echo "benchmark-selftest: skipping $(SELFTEST_SKIP): benchmark_test.go:210 pins the deleted Mediate fan-out (allocs_per_query >= 100); benchmark/ is frozen outside benchmark-archetype PRs"
	$(GO) -C benchmark test -skip '^$(SELFTEST_SKIP)$$' ./...

# loc prints the Go line counts ROADMAP aim 2 ("least code") is read off:
# non-test and test lines outside the frozen benchmark/, the non-test lines
# ROADMAP item 11 budgets (the same, without the tools/benchpairs harness),
# and the non-test lines of the three packages that hold Algorithm 1.
GO_FILES = find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*'
ALG1_DIRS = -path './internal/mediator/*' -o -path './internal/core/*' -o -path './internal/allocator/*'
loc:
	@echo "non-test $$($(GO_FILES) ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "test $$($(GO_FILES) -name '*_test.go' | xargs cat | wc -l)"
	@echo "non-test without tools/benchpairs $$($(GO_FILES) ! -name '*_test.go' -not -path './tools/benchpairs/*' | xargs cat | wc -l)"
	@echo "mediator+core+allocator non-test $$($(GO_FILES) ! -name '*_test.go' \( $(ALG1_DIRS) \) | xargs cat | wc -l)"

clean:
	rm -f BENCH_results.json $(COVER_PROFILE)
	rm -rf $(PROFILE_DIR)
