GO ?= go

# Minimum statement coverage for the pipeline package (internal/core),
# enforced by `make cover`. Raise it as coverage grows; never lower it
# to sneak a PR past the gate.
COVER_MIN_CORE ?= 80

# `make check` is the PR gate: vet, build, race-enabled tests, a
# one-iteration smoke pass over the performance benchmarks so a broken
# benchmark fails fast without paying full measurement time, a bounded
# run of the fleet daemon's self-test, the same run again with the trace
# store recording (append → seal → downsample → range-query round trip),
# an observability pass (spans + SLO burn + flight dump + /metrics
# scrape), and a gated coverage report over the internal packages.
.PHONY: check
check: vet build race bench-smoke daemon-smoke store-smoke obs-smoke cover

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

# Statement coverage across every internal package, written to
# coverage.out (uploaded as a CI artifact) with a per-function summary
# in coverage-func.txt. internal/core — the tier the stage graph and
# estimator registry live in — is gated at $(COVER_MIN_CORE)%; the gate
# recomputes its package coverage from the merged profile (fields:
# "file:range numstmts hitcount").
.PHONY: cover
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./internal/...
	$(GO) tool cover -func=coverage.out > coverage-func.txt
	@tail -n 1 coverage-func.txt
	@awk 'NR > 1 && $$1 ~ /internal\/core\// { total += $$2; if ($$3 > 0) covered += $$2 } \
	  END { pct = total ? 100 * covered / total : 0; \
	        printf "coverage gate: internal/core %.1f%% (min $(COVER_MIN_CORE)%%)\n", pct; \
	        exit (pct < $(COVER_MIN_CORE)) }' coverage.out

# One iteration of every tracked benchmark: catches benchmarks that
# panic or reject their own fixtures without paying measurement time.
.PHONY: bench-smoke
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineProcess$$|BenchmarkMonitorStride$$|BenchmarkQuarantinePush$$|BenchmarkDWTDenoise$$|BenchmarkRootMUSIC$$|BenchmarkEstimateStage$$|BenchmarkStreamingCorrelationAppend$$|BenchmarkColumnarIngest$$|BenchmarkFleetDensity$$|BenchmarkStoreAppend$$|BenchmarkStoreRangeQuery$$|BenchmarkSpanIngestOverhead$$|BenchmarkTrendMedian$$|BenchmarkHampelSmooth$$' -benchtime 1x ./internal/core ./internal/music ./internal/arena ./internal/fleet ./internal/store ./internal/otrace ./internal/dsp

# A small, bounded run of the fleet daemon's in-process load harness:
# opens sessions over sharded arenas with mid-run churn, and exits
# non-zero if any session starves or churn recycles no arena slabs.
.PHONY: daemon-smoke
daemon-smoke:
	$(GO) run ./cmd/phasebeatd -selftest -sessions 64 -seconds 12 -window 4 -stride 1 -churn 0.25

# The daemon self-test with the tiered trace store recording every
# session: exercises the full append → block-seal → downsample →
# range-query round trip and exits non-zero unless the tier query was
# answered without decoding a sealed block.
.PHONY: store-smoke
store-smoke:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/phasebeatd -selftest -sessions 8 -seconds 12 -window 4 -stride 1 -churn 0.25 \
	  -store-dir "$$dir/store" -store-block-seconds 4

# The daemon self-test with end-to-end latency spans and an unmeetable
# SLO target: every update breaches, the fast burn rate crosses 1, and
# the run must retain spans, write exactly one slo-burn flight dump, and
# serve the Prometheus exposition at /metrics — the whole observability
# path in one bounded run.
.PHONY: obs-smoke
obs-smoke:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/phasebeatd -selftest -sessions 8 -seconds 12 -window 4 -stride 1 -churn 0.25 \
	  -slo-target-ms 0.001 -span-sample 4 -flight-dir "$$dir/flight" -metrics-addr 127.0.0.1:0

# The columnar memory-layout benchmarks on their own, with allocation
# stats — the report CI uploads as the columnar-bench artifact.
.PHONY: bench-columnar
bench-columnar:
	$(GO) run ./cmd/benchreport -bench 'BenchmarkColumnarIngest$$|BenchmarkMonitorStride$$|BenchmarkPipelineProcess$$' -packages './internal/arena ./internal/core' -benchtime 300ms -count 3 -out BENCH_columnar.json

# Full benchmark run (slow): every package's benchmarks at default time.
.PHONY: bench
bench:
	$(GO) test -run '^$$' -bench . ./...

# Machine-readable benchmark report (BENCH_<date>.json) via
# cmd/benchreport; see that command's doc comment for the format.
.PHONY: bench-report
bench-report:
	$(GO) run ./cmd/benchreport -benchtime 300ms -count 3

# The CI regression gate: fresh measurement compared against the
# committed baseline, nonzero exit on any metric past tolerance.
.PHONY: bench-compare
bench-compare:
	$(GO) run ./cmd/benchreport -benchtime 300ms -count 3 -out BENCH_ci.json -compare bench/baseline.json

# Refresh the committed baseline (run on the reference machine after an
# intentional performance change, and commit the result).
.PHONY: bench-baseline
bench-baseline:
	$(GO) run ./cmd/benchreport -benchtime 300ms -count 3 -out BENCH_ci.json -compare bench/baseline.json -update
