GO ?= go

.PHONY: all build test vet lint fmt race vulncheck fuzz-smoke bench-smoke bench-baseline bench-record allocbudget-check perfbench-check check bench chaos chaos-straggler

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

# Repo-specific invariants (context plumbing, lock balance and ordering,
# sorted adjacency, goroutine lifecycle, channel discipline, CAS loops, gob
# wire safety, map-order determinism, hot-path allocation/boxing/defer/
# preallocation discipline, suppression hygiene).
# Test files are part of the unit (-tests defaults to on). See DESIGN.md
# §9, §11, §14 + §16 and `go run ./cmd/mcevet -list`.
lint: vet
	$(GO) run ./cmd/mcevet ./...

# The committed hot-path allocation budget must match the tree:
# regenerating .mcevet/allocbudget.json has to be a no-op, or a hot
# allocation changed without review (DESIGN.md §16).
allocbudget-check:
	$(GO) run ./cmd/mcevet -update-allocbudget
	git diff --exit-code .mcevet/allocbudget.json

# perfbench is a nested module (replace mce => ../), so the root
# `go build ./... && go test ./...` never compiles it; this target catches an
# internal API change that would break the benchmark build.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

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
# time, so they are spelled out).
fuzz-smoke:
	$(GO) test -run=Fuzz -fuzz=FuzzReader -fuzztime=10s ./internal/cliqstore
	$(GO) test -run=Fuzz -fuzz=FuzzReadEdgeList -fuzztime=10s ./internal/gio
	$(GO) test -run=Fuzz -fuzz=FuzzReadTriples -fuzztime=10s ./internal/gio
	$(GO) test -run=Fuzz -fuzz=FuzzLoadBoundedAgreesWithLoad -fuzztime=10s ./internal/gio
	$(GO) test -run=Fuzz -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/runlog
	$(GO) test -run=Fuzz -fuzz=FuzzIndexOpen -fuzztime=10s ./internal/cliqdb

# Crash-recovery chaos: the coordinator is SIGKILLed at randomized points and
# must resume to the exact clique set (chaos_resume_test.go), and the index
# compiler is SIGKILLed mid-compile and must leave the live index absent or
# byte-identical, then self-heal to the control bytes
# (internal/cliqdb/chaos_compile_test.go) — alongside the fault-injection
# cluster chaos tests. Runs under -race; MCE_CHAOS=1 arms the kill-based
# tests, MCE_CHAOS_ARTIFACTS collects journal+segments on failure.
chaos:
	MCE_CHAOS=1 $(GO) test -race -count=1 -run 'Chaos|Resume' . ./internal/cluster ./internal/core ./internal/cliqdb ./cmd/mcefind

# Straggler chaos in isolation (also part of `chaos`): a worker delayed
# ~100× the healthy round trip must be masked by hedged dispatch — equal
# sorted-output digest, bounded wall time, hedge counters asserted
# (straggler_test.go). Runs under -race.
chaos-straggler:
	$(GO) test -race -count=1 -run 'ChaosStraggler' -v ./internal/cluster

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

check: build fmt lint allocbudget-check perfbench-check test race vulncheck bench-smoke

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
