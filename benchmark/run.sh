#!/usr/bin/env bash
# Builds the benchmark once, then runs one process per workload, so that
# peak_rss_mb is each workload's own high-water mark.
#
#   benchmark/run.sh [--seed N] [--seconds N] [--trace] [--smoke]
#
# Each workload's output goes to the terminal and to
# benchmark/out/result-<workload>.txt (traces land beside it). Exits
# non-zero if any workload failed its correctness gate.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/flowplace-benchmark"

mkdir -p benchmark/out
status=0
for workload in deploy-4k churn-1k reroute-512 flows-1k; do
    "$bin" --workload "$workload" "$@" | tee "benchmark/out/result-$workload.txt" || status=1
done
exit "$status"
