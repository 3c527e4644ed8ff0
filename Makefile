# Convenience targets mirroring .github/workflows/ci.yml.
# The workspace is dependency-free: everything runs with --offline.

CARGO ?= cargo

.PHONY: all ci fmt fmt-check clippy no-raw-print doc build test test-all examples timing-guard benchmark-smoke obs-smoke replay-demo chaos loc bench-pairs clean

all: ci

## ci: the gating steps of .github/workflows/ci.yml, in its order —
## format check, clippy, print hygiene, doc links, tier-1 tests under
## the timing guard, every crate's tests, the examples, the benchmark
## smoke run, the pinned obs dumps, the pinned demo and chaos replay
## outputs.
ci: fmt-check clippy no-raw-print doc timing-guard test-all examples benchmark-smoke obs-smoke replay-demo chaos

fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all --check

clippy:
	$(CARGO) clippy --offline --workspace --all-targets -- -D warnings

## no-raw-print: library sources must route output through flowplace-obs
## or a Write sink, never raw print macros (binaries are exempt), read
## no wall clock, spawn no thread, and hash only through flowplace-fasthash
## (no std HashMap/HashSet; Fnv64 only in core::fingerprint).
no-raw-print:
	./scripts/no_raw_print.sh

## doc: rustdoc with warnings denied, so an intra-doc link left dangling
## by a deleted or renamed item fails the build.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --offline --workspace

build:
	$(CARGO) build --release --offline

## test: the tier-1 gate (root-package tests against the release build).
test: build
	$(CARGO) test -q --offline

## test-all: every crate in the workspace.
test-all:
	$(CARGO) test -q --offline --workspace

## examples: run every program in examples/ (release build); several
## assert or `expect` their results, so one that exits non-zero fails
## the target.
examples:
	@for e in examples/*.rs; do \
		echo "== example $$(basename $$e .rs)"; \
		$(CARGO) run --release --offline --quiet --example $$(basename $$e .rs) || exit 1; \
	done

## timing-guard: tier-1 tests under the 2x wall-clock budget
## (scripts/test_timing_baseline.txt) — what CI runs.
timing-guard: build
	./scripts/test_timing_guard.sh

## benchmark-smoke: the system benchmark (benchmark/, a package outside
## the workspace, so nothing above notices when a crates/* API edit
## breaks it): its own tests, then one short round of every workload;
## fails unless all four pass their correctness gate.
benchmark-smoke:
	$(CARGO) test --offline --manifest-path benchmark/Cargo.toml
	benchmark/run.sh --smoke
	test "$$(cat benchmark/out/result-*.txt | grep -c '"correct": true')" -eq 4

## obs-smoke: chaos replay emitting span-trace and metrics dumps, then
## the fault-free demo replay (default options) emitting its metrics
## dump; the CLI validates each against flowplace.obs.v1 before writing,
## and the summarize pass re-validates on read. Fails if a regenerated
## dump differs from the committed one: pinned artifacts move
## deliberately.
obs-smoke:
	$(CARGO) run --release --offline --bin flowplace -- \
		ctrl replay traces/chaos.trace --batch 4 \
		--faults traces/chaos.faults --fault-seed 42 \
		--reject-rate 0.1 --crash-rate 0.02 --recover-rate 0.5 \
		--trace-out OBS_trace.json --metrics-out OBS_metrics.json
	$(CARGO) run --release --offline --bin flowplace -- \
		ctrl replay traces/controller_demo.trace \
		--metrics-out OBS_demo_metrics.json
	$(CARGO) run --release --offline --bin flowplace -- \
		obs summarize OBS_trace.json OBS_metrics.json OBS_demo_metrics.json
	git diff --exit-code -- OBS_trace.json OBS_metrics.json OBS_demo_metrics.json

## replay-demo: run the controller on the shipped 50+-event trace;
## fails if its stdout (dataplane dump and stats included) differs from
## the pinned traces/controller_demo.out.
replay-demo:
	$(CARGO) run --release --offline --bin flowplace -- \
		ctrl replay traces/controller_demo.trace > traces/controller_demo.out
	git diff --exit-code -- traces/controller_demo.out

## chaos: replay the committed chaos trace under the pinned fault seed;
## exits non-zero unless the fail-closed audit is green, and fails if
## its stdout differs from the pinned traces/chaos.out.
chaos:
	$(CARGO) run --release --offline --bin flowplace -- \
		ctrl replay traces/chaos.trace --batch 4 \
		--faults traces/chaos.faults --fault-seed 42 \
		--reject-rate 0.1 --crash-rate 0.02 --recover-rate 0.5 > traces/chaos.out
	git diff --exit-code -- traces/chaos.out

## bench-pairs: paired runs of benchmark workloads, REV against the
## working tree, each side built once in a fresh directory
## (scripts/bench_pairs.sh). WORKLOAD and SEED take comma-separated
## lists. Not part of ci. Example:
##   make bench-pairs REV=HEAD~1 WORKLOAD=churn-1k,reroute-512 SEED=1,2
PAIRS ?= 10
SEED ?= 1
SECONDS ?= 3
bench-pairs:
	@test -n "$(REV)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pairs REV=<rev> WORKLOAD=<name>[,<name>...] [PAIRS=10] [SEED=1[,<seed>...]] [SECONDS=3]" >&2; exit 2; }
	./scripts/bench_pairs.sh "$(REV)" "$(WORKLOAD)" "$(PAIRS)" "$(SEED)" "$(SECONDS)"

## loc: lines of Rust, the figures CHANGES.md and ROADMAP quote: what
## ships (`crates` + `src`), the tier-1 tests, the system benchmark;
## then `src` and each crate split into code and in-crate tests (code:
## the lines above a file's first `#[cfg(test)]`; tests: the lines from
## there on, plus every `tests.rs` file and every file under a `tests/`
## directory); then the five largest files of `crates` + `src`, for
## file-size gates.
loc:
	@printf 'crates + src   %s\n' "$$(find crates src -name '*.rs' | xargs cat | wc -l)"
	@printf 'tests          %s\n' "$$(find tests -name '*.rs' | xargs cat | wc -l)"
	@printf 'benchmark/src  %s\n' "$$(find benchmark/src -name '*.rs' | xargs cat | wc -l)"
	@printf '%-18s %6s %6s\n' 'code / tests' code tests
	@for d in src crates/*; do \
		find $$d -name '*.rs' | sort | xargs awk -v d=$$d ' \
			FNR == 1 { t = FILENAME ~ /(^|\/)tests(\.rs$$|\/)/ } \
			/^#\[cfg\(test\)\]/ { t = 1 } \
			{ if (t) tests++; else code++ } \
			END { printf "%-18s %6d %6d\n", d, code, tests }'; \
	done
	@echo 'largest files in crates + src:'
	@find crates src -name '*.rs' -exec wc -l {} + | grep -v ' total$$' | sort -rn | head -5

clean:
	$(CARGO) clean
