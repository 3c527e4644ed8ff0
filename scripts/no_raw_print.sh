#!/usr/bin/env bash
# Library sources must not print.
#
# All output from library crates goes through flowplace-obs (spans +
# metrics on a deterministic virtual clock) or a caller-provided Write
# sink; a raw print macro in a library bypasses both, is invisible to
# the canonical telemetry dumps, and can corrupt machine-readable
# stdout. Binaries own stdout and are exempt: src/bin/ and
# crates/*/src/bin/.
set -euo pipefail
cd "$(dirname "$0")/.."

matches=$(grep -RnE '\be?print(ln)?!' crates/*/src src/lib.rs \
    | grep -vE '^crates/[^/]+/src/bin/' \
    || true)

if [ -n "$matches" ]; then
    echo "FAIL: raw print macros in library sources:" >&2
    echo "$matches" >&2
    echo "Route the output through flowplace-obs or a Write sink instead." >&2
    exit 1
fi
echo "no raw print macros in library sources"
