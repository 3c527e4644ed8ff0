#!/usr/bin/env bash
# Library sources must not print, read the wall clock, spawn threads,
# keep per-thread or mutable global state, or hash with anything but the
# two hashers of flowplace-fasthash.
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

# Library sources must not read the wall clock either: a solve's outcome
# is a function of its inputs. The experiment driver (crates/bench) and
# binaries hold their own stopwatches.
clock=$(grep -RnE 'std::time|Instant|Duration' crates/*/src \
    | grep -vE '^crates/bench/|^crates/[^/]+/src/bin/' \
    || true)

if [ -n "$clock" ]; then
    echo "FAIL: wall clock in library sources:" >&2
    echo "$clock" >&2
    echo "Report effort (nodes, iterations) in the outcome; time it from the caller." >&2
    exit 1
fi
echo "no wall clock in library sources"

# Nor spawn threads: every stage of a solve runs on the calling thread,
# so a library needs neither `std::thread` nor a core count. The
# experiment driver (crates/bench) and binaries are exempt, as above.
threads=$(grep -RnE 'std::thread|available_parallelism' crates/*/src \
    | grep -vE '^crates/bench/|^crates/[^/]+/src/bin/' \
    || true)

if [ -n "$threads" ]; then
    echo "FAIL: threads in library sources:" >&2
    echo "$threads" >&2
    echo "Run the work on the calling thread." >&2
    exit 1
fi
echo "no threads in library sources"

# Nor keep state between calls in a `thread_local!` or a `static mut`:
# what such state feeds depends on whatever ran earlier on the calling
# thread, not on the call's inputs. Exemptions as above.
state=$(grep -RnE 'thread_local!|static mut\b' crates/*/src \
    | grep -vE '^crates/bench/|^crates/[^/]+/src/bin/' \
    || true)

if [ -n "$state" ]; then
    echo "FAIL: per-thread or global mutable state in library sources:" >&2
    echo "$state" >&2
    echo "Keep working storage in a value the caller owns." >&2
    exit 1
fi
echo "no per-thread or global mutable state in library sources"

# Nor hash outside the hasher policy (DESIGN.md §16): an unordered map
# or set is a `WordHashMap` / `WordHashSet`, never a std `HashMap` /
# `HashSet` (whose default SipHash is seeded per process and slower on
# these keys), and byte-wise FNV-1a (`Fnv64`) serves only the persisted
# fingerprints of crates/core/src/fingerprint.rs. crates/fasthash, which
# defines both, and the exemptions above are left out.
hashers=$( { grep -RnE '\bHash(Map|Set)\b' crates/*/src src/lib.rs \
        | grep -vE '^crates/(bench|fasthash)/|^crates/[^/]+/src/bin/' || true
    grep -RnE '\bFnv64\b' crates/*/src src/lib.rs \
        | grep -vE '^crates/(bench|fasthash)/|^crates/[^/]+/src/bin/|^crates/core/src/fingerprint\.rs:' || true
} )

if [ -n "$hashers" ]; then
    echo "FAIL: hashers outside the policy in library sources:" >&2
    echo "$hashers" >&2
    echo "Key in-process maps with WordHashMap/WordHashSet; keep Fnv64 to core::fingerprint." >&2
    exit 1
fi
echo "no std-hashed maps or stray Fnv64 in library sources"
