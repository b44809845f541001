# Developer and CI entry points. `make check` is the gate every PR must
# pass: vet, build, and the full test suite under the race detector (the
# synthesis engine is concurrent; -race keeps it honest).

GO ?= go

.PHONY: check build test vet race lint analyze bench bench-paper fuzz serve cluster cluster-test stress

# perfbench is its own module, so `go build ./...` never compiles it;
# vetting it catches API changes that would break the benchmark.
check: vet build race lint
	cd perfbench && $(GO) vet .

# Static analysis of the shipped model definitions: the examples must be
# finding-free (-strict fails on warnings too); the builtin sweep is
# advisory — bound-4 redundancy verdicts on power/armv7 are expected
# (DESIGN.md §11) and only error-severity findings fail it.
lint:
	$(GO) run ./cmd/catlint -strict examples/cat/*.cat
	$(GO) run ./cmd/catlint -builtins

# vet is the blocking static-analysis gate: the stock toolchain vet plus
# memvet, the engine's own analyzers (maporder, inplacealias, poolescape,
# detpath — DESIGN.md §16). Any memvet finding fails `make check`.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/memvet ./...

# Extended analysis beyond the blocking gate: staticcheck blocks when the
# binary is available (CI installs it; locally it is skipped rather than
# fetched, since builds must work offline) and govulncheck is advisory —
# a vulnerable dependency report should prompt an upgrade, not mask an
# unrelated PR.
analyze: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "analyze: staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "analyze: govulncheck findings are advisory"; \
	else \
		echo "analyze: govulncheck not installed; skipping (CI runs it)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The bench ledger, BENCH_synth.json (committed, so the perf trajectory
# is comparable across changes): one command runs a fixed grid of plain Go
# benchmarks (whole synthesis and explore-only runs per model, one size's
# generate/dedupe phase, a two-shard round trip, admit on the
# single-address tso worst case, stress
# throughput, and the Decide and ProgramKey micro rows), one package at a
# time, five runs each, and
# records every metric's median and quartiles. Sections it does not own
# (backend_cases) are carried over unchanged. CI runs `benchledger -short`.
bench:
	$(GO) run ./cmd/benchledger

# The original package-level micro-benchmarks (paper-facing API).
bench-paper:
	$(GO) test -bench=. -benchmem -run=^$$ .

# The native stress executor under the race detector: the compile/run/
# decode machinery plus the harness-level differential soundness gate
# (atomic-mode runs of the seed sc/tso suites observe only model-allowed
# outcomes). Plain mode is exercised separately without -race by design.
stress:
	$(GO) test -race -count=1 -v ./internal/stress
	$(GO) test -race -count=1 -run '^TestStress' -v ./internal/harness

# Short coverage-guided fuzz of the litmus text parser and the cat model
# compiler (CI runs the same smoke); lengthen with FUZZTIME=5m for a real
# session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzParseLitmus -fuzztime=$(FUZZTIME) ./internal/litmus
	$(GO) test -fuzz=FuzzParseCat -fuzztime=$(FUZZTIME) ./internal/cat
	$(GO) test -fuzz=FuzzLint -fuzztime=$(FUZZTIME) ./internal/catlint

# Run the synthesis daemon locally (Ctrl-C drains in-flight jobs).
serve:
	$(GO) run ./cmd/memsynthd -addr :8080 -data-dir memsynthd-data

# Run a local 3-node cluster: one coordinator on :8080 plus two workers
# that join it and share its store as a cache tier. Ctrl-C drains all
# three (workers finish or hand back their in-flight shards first).
cluster:
	$(GO) build -o bin/memsynthd ./cmd/memsynthd
	./bin/memsynthd -addr :8080 -data-dir memsynthd-data -coordinator & \
	./bin/memsynthd -addr :8081 -data-dir memsynthd-w1 -join http://localhost:8080 -worker-name w1 & \
	./bin/memsynthd -addr :8082 -data-dir memsynthd-w2 -join http://localhost:8080 -worker-name w2 & \
	trap 'kill 0' INT TERM; wait

# The in-process cluster suite under the race detector: shard-merge
# determinism against single-node bytes, worker-kill reassignment, drain
# hand-back, backpressure, and the 3-node smoke.
cluster-test:
	$(GO) test -race -count=1 -v ./internal/cluster
