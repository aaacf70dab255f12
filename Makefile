# CI entry points. `make check` is what a pipeline should run; each step
# is also callable on its own. FUZZTIME tunes the fuzz smoke (default 5s
# per target; CI can raise it, `make FUZZTIME=30s fuzz-smoke`).

GO       ?= go
FUZZTIME ?= 5s
BENCHDIR ?= .

.PHONY: all check fmt vet build test race fuzz-smoke bench bench-diff bench-gate prof-smoke chaos-smoke crash-smoke churn-smoke rdma-smoke critical-smoke flow-smoke e6-smoke perfbench-smoke

all: check

check: fmt vet build test race fuzz-smoke prof-smoke chaos-smoke crash-smoke churn-smoke rdma-smoke critical-smoke flow-smoke e6-smoke perfbench-smoke bench bench-diff bench-gate

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz runs of every fuzz target (seeds are checked in under each
# package's testdata/fuzz/). A finding is written there as a new case.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/msg/
	$(GO) test -run '^$$' -fuzz '^FuzzApplyDiff$$' -fuzztime $(FUZZTIME) ./internal/tmk/
	$(GO) test -run '^$$' -fuzz '^FuzzDiffRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/tmk/
	$(GO) test -run '^$$' -fuzz '^FuzzMemberFrame$$' -fuzztime $(FUZZTIME) ./internal/tmk/
	$(GO) test -run '^$$' -fuzz '^FuzzHandleAsyncFrame$$' -fuzztime $(FUZZTIME) ./internal/substrate/fastgm/
	$(GO) test -run '^$$' -fuzz '^FuzzCreditFrame$$' -fuzztime $(FUZZTIME) ./internal/substrate/fastgm/
	$(GO) test -run '^$$' -fuzz '^FuzzHandleVerbFrame$$' -fuzztime $(FUZZTIME) ./internal/substrate/rdmagm/
	$(GO) test -run '^$$' -fuzz '^FuzzHandleCompletion$$' -fuzztime $(FUZZTIME) ./internal/substrate/rdmagm/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCtx$$' -fuzztime $(FUZZTIME) ./internal/trace/

# Chaos sweep: all four applications on both transports over a seeded
# lossy fabric (drop, corruption, latency spikes, a timed blackout),
# asserting bit-correct results, active recovery, no residual disabled
# ports, and zero-probability fault-config identity.
chaos-smoke:
	$(GO) run ./cmd/tmkrun -chaos

# Crash-tolerance sweep: a rank death injected into a checkpointing
# barrier app (must restart bit-correct) and a lock app (must abort with
# a post-mortem naming the dead rank and blocking entity), on both
# transports, plus determinism and inert-crash-config identity.
crash-smoke:
	$(GO) run ./cmd/tmkrun -crash

# Membership churn sweep: a seeded schedule of join/leave/crash events at
# barrier fences, all four applications on all three substrates,
# asserting bit-correct results, bounded partial recovery (no generation
# restart), converged views, determinism, and zero-churn identity.
churn-smoke:
	$(GO) run ./cmd/tmkrun -churn

# Machine-readable bench trajectory: writes BENCH_e0/e1/e2/e3/churn.json into
# BENCHDIR. Deterministic — rerunning on the same tree is byte-identical,
# so `git diff BENCH_*.json` across commits shows real perf movement.
bench:
	$(GO) run ./cmd/bench -out $(BENCHDIR)

# Per-row deltas of the regenerated suites against the checked-in
# BENCH_*.json (informational: nonzero deltas are perf movement to review,
# not an error). In `make check` this runs after `bench`, so it doubles as
# a byte-determinism smoke: freshly rewritten files must diff at 0.0%.
bench-diff:
	$(GO) run ./cmd/bench -diff -out $(BENCHDIR)

# Differential regression of the home-based protocol: every app's final
# shared memory under home-based LRC on rdmagm must be bit-identical to
# homeless LRC on fastgm (short matrix; `go test ./internal/harness -run
# TestHomeBased` runs the full seeds × node-counts sweep).
rdma-smoke:
	$(GO) test -short -run 'TestHomeBased' ./internal/harness/

# Bench regression gate: regenerated suites must match the checked-in
# BENCH_*.json within per-row tolerances (max(500ns, 2%·old) by default);
# a removed row is a failure. Unlike bench-diff, violations exit nonzero.
bench-gate:
	$(GO) run ./cmd/bench -gate -out $(BENCHDIR)

# Overload-resilience smoke: the 64-node incast storm on all three
# substrates with credit flow control on — every frame delivered, the
# pressure absorbed as sender-side credit stalls, zero parked frames /
# socket drops / GM send timeouts / disabled ports (DESIGN.md §15).
flow-smoke:
	$(GO) run ./cmd/tmkrun -incast

# Quick end-to-end run of the protocol-entity profiler (small sizes).
prof-smoke:
	$(GO) run ./cmd/figures -fig prof -prof-nodes 4 -prof-small > /dev/null

# Causal critical-path smoke: one SOR run over FAST/GM must extract a
# non-empty critical path whose category attributions sum exactly to the
# end-to-end virtual time (DESIGN.md §13).
critical-smoke:
	$(GO) test -run 'TestCriticalSmokeSORFastGM' ./internal/harness/

# Scalability smoke: the E6 sweep (4…256 nodes) must reproduce the E6
# table checked into figures_output.txt byte for byte. Feasible because
# GM registered memory is accounted, not allocated (DESIGN.md §4.7).
e6-smoke:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./cmd/figures -fig e6 > "$$tmp" && \
	sed -n '/^E6/,/^$$/p' figures_output.txt | diff -u - "$$tmp"

# The repo benchmark's own tests (perfbench/ is a separate Go module, so
# the root `go test ./...` does not reach it): every workload at small
# sizes, traced and untraced, must self-check, print BENCHMARK.json's
# metric names and units, and repeat its virtual results exactly.
perfbench-smoke:
	cd perfbench && $(GO) test ./...
