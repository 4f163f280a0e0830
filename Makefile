# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race stress chaos bench loc vet fmt fmt-check lint vuln experiments-unit experiments-small clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# MVCC stress tests (concurrent census vs mutating writer, maintainer
# convergence, live-engine ingest) plus the work-stealing determinism
# tests with randomized steal timing, repeated under the race detector.
stress:
	$(GO) test -race -shuffle=on -count=3 -run 'Stress|Stealing|Shard|Pairwise|ParallelFor|Incremental' ./internal/core/ ./internal/storage/

# Crash-recovery soak: scripted filesystem faults (torn writes, failed
# fsyncs, crash-after-op) against the dynamic store, checking
# replay-or-truncate recovery and degraded-mode serving. Runs a 1-shard
# store (v1 log segment) and a 4-shard one (v2 segments). Set CHAOS_ITERS
# / CHAOS_SEED to widen or reproduce a run.
chaos:
	CHAOS_SHARDS=1 ./scripts/chaos_soak.sh
	CHAOS_SHARDS=4 ./scripts/chaos_soak.sh

# The one benchmark (bench/, declared in BENCHMARK.json): every workload,
# untraced and traced, report in bench/out/. The paper-figure Go benchmarks in
# bench_test.go run with `go test -bench=. -run='^$' .`.
bench:
	bash bench/run.sh --seed 1 --out bench/out/report.json

# Tracked line count: non-test Go (tracked *.go minus _test.go and
# testdata/), printed for the root module and the bench/ module apart.
loc:
	@root=$$(git ls-files '*.go' | grep -v -e '_test\.go$$' -e 'testdata/' -e '^bench/' | xargs cat | wc -l); \
	bench=$$(git ls-files 'bench/*.go' | grep -v -e '_test\.go$$' -e 'testdata/' | xargs cat | wc -l); \
	echo "root module: $$root non-test Go lines"; \
	echo "bench/:      $$bench non-test Go lines"

vet:
	$(GO) vet ./...

# Full static-analysis gate: vet, staticcheck (skipped with a notice if
# not installed locally; CI always runs it), and the repo's own egolint
# suite (cmd/egolint) enforcing the invariants in doc/INVARIANTS.md.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	$(GO) run ./cmd/egolint ./...

# Known-vulnerability scan; skipped with a notice if govulncheck is not
# installed locally (CI installs and runs it).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs it)"; fi

fmt:
	gofmt -w .

# Fails listing any file gofmt would change (CI's formatting gate).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
	echo "gofmt drift in:"; echo "$$out"; exit 1; fi

# Regenerate the paper's figures (seconds / minutes respectively).
experiments-unit:
	$(GO) run ./cmd/experiments -fig all -scale unit

experiments-small:
	$(GO) run ./cmd/experiments -fig all -scale small -v

clean:
	$(GO) clean ./...
