#!/usr/bin/env bash
# Paired A/B runs of benchmark workloads: a git revision against the
# working tree.
#
#   scripts/bench_pairs.sh REV WORKLOADS [PAIRS] [SEEDS] [SECONDS]
#
# WORKLOADS is one workload name or a comma-separated list of them
# (e.g. churn-1k,reroute-512,deploy-4k,flows-1k); SEEDS likewise one
# seed or a comma-separated list (e.g. 1,2).
#
# Copies REV (`git archive`) and the working tree (tracked and untracked
# files, ignored ones left out) into two fresh directories under
# ${TMPDIR:-/tmp} and builds the benchmark in each from scratch, once,
# so neither side shares a target directory, a build cache or a code
# layout with the other or with this checkout. Then, per workload and
# per seed in the order given, runs PAIRS pairs (default 10) of
# `flowplace-benchmark --workload WORKLOAD --seed SEED --seconds SECONDS`
# (defaults 1 and 3), alternating which side runs first, and prints one
# table per (workload, seed), headed by REV's short hash and the working
# tree's `git describe --always --dirty`: per
# end-to-end metric each side's median and quartiles, the ratio of the
# medians, whether the medians lie further apart than the revision's
# interquartile range, in how many pairs the working tree did strictly
# better, and a verdict: `gain` when it did in at least 9 of 10 pairs
# and its median is better than the revision's by more than that range,
# `worse` when its median is worse by more than the metric's `bound` in
# BENCHMARK.json (a share of the revision's median), `unresolved` when
# neither holds and the revision's interquartile range is itself wider
# than that bound, so the runs cannot tell a change within the bound
# from none (unless every working-tree run is better than every
# revision run), `-` otherwise.
# `throughput_events_s` is better higher, every other end-to-end metric
# lower (as in BENCHMARK.json). Quartiles interpolate linearly between
# order statistics. A last row, `failed/attempted`, gives each side's
# failed operations over attempted ones, summed over its runs, with the
# verdict `worse` when the working tree's share is the larger. The
# script exits 1 after the tables if any run printed `"correct": false`.
#
# When the working tree equals REV (no difference from it and no
# untracked file), both sides build the same code and each table header
# says `A/A control`: whatever such a table reads comes from the builds'
# layout and the machine, not from the code. Run against HEAD on a
# clean tree beside a change's pairs to see how large that noise is on
# each workload before reading a verdict.
# The directories are removed on exit. Not part of `make ci`: a run
# takes minutes per workload.
set -euo pipefail

usage() {
    echo "usage: scripts/bench_pairs.sh REV WORKLOAD[,WORKLOAD...] [PAIRS] [SEED[,SEED...]] [SECONDS]" >&2
    exit 2
}
[ $# -ge 2 ] && [ $# -le 5 ] || usage
rev=$1
IFS=, read -r -a workloads <<<"$2"
pairs=${3:-10}
IFS=, read -r -a seeds <<<"${4:-1}"
seconds=${5:-3}
[ ${#workloads[@]} -ge 1 ] && [ ${#seeds[@]} -ge 1 ] || usage
for w in "${workloads[@]}"; do
    [[ "$w" =~ ^[A-Za-z0-9_-]+$ ]] || usage
done
for n in "$pairs" "${seeds[@]}" "$seconds"; do
    [[ "$n" =~ ^[0-9]+$ ]] || usage
done
[ "$pairs" -ge 1 ] || usage

cd "$(dirname "$0")/.."
if ! git rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
    echo "error: unknown revision $rev" >&2
    exit 2
fi

# The working tree as `git describe` names it (`-dirty`: uncommitted
# edits), printed in each table header.
tree=$(git describe --always --dirty)
control=
if git diff --quiet "$rev" -- && [ -z "$(git ls-files --others --exclude-standard)" ]; then
    control=", A/A control (the working tree equals the revision)"
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/base" "$work/change"
git archive "$rev" | tar -x -C "$work/base"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do
        # A tracked file deleted in the working tree is not copied.
        if [ -e "$f" ]; then printf '%s\0' "$f"; fi
    done |
    tar --null -T - -cf - | tar -x -C "$work/change"

for side in base change; do
    echo "building $side ..." >&2
    (cd "$work/$side" && env -u CARGO_TARGET_DIR \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

metrics="setup_s throughput_events_s call_p50_ms rules_placed peak_rss_mb"
# "name=bound ..." for every metric with a bound in BENCHMARK.json.
bounds=$(awk -F'"' '$2 == "name" { name = $4 } $2 == "bound" { gsub(/[^0-9.]/, "", $3); printf "%s=%s ", name, $3 }' BENCHMARK.json)

run() {
    local workload=$1 seed=$2 side=$3 pair=$4 results=$5 out
    out=$(cd "$work/$side" && benchmark/target/release/flowplace-benchmark \
        --workload "$workload" --seed "$seed" --seconds "$seconds")
    printf '%s\n' "$out" | awk -v w="$workload" -v s="$side" -v p="$pair" -v names="$metrics" '
        BEGIN { n = split(names, m, " "); for (i = 1; i <= n; i++) wanted[m[i]] = 1 }
        $1 == w && ($2 in wanted) { print $2, s, $3, p }
        $1 == w && $2 == "throughput_events_s" { printf "  %s: %s %s\n", s, $3, $4 > "/dev/stderr" }
    ' >>"$results"
    # The result object: `{"correct": ..., "attempted": N, "failed": N, ...}`.
    printf '%s\n' "$out" | awk -v s="$side" -v flag="$work/incorrect" '
        function field(name) { return match($0, "\"" name "\": [a-z0-9]+") ? substr($0, RSTART + length(name) + 4, RLENGTH - length(name) - 4) : "" }
        /^\{"correct": / {
            if (field("correct") != "true") { printf "  %s: \"correct\": %s\n", s, field("correct") > "/dev/stderr"; printf "" > flag }
            print s, field("attempted"), field("failed")
        }
    ' >>"$results.ops"
}

summarize() {
    local workload=$1 seed=$2 results=$3
    echo "$workload, seed $seed, $pairs pairs of --seconds $seconds: $(git rev-parse --short "$rev") (base) vs the working tree at $tree (change)$control"
    sort -k1,1 -k2,2 -k3,3g "$results" | awk -v order="$metrics" -v pairs="$pairs" -v bounds="$bounds" '
    BEGIN {
        n = split(bounds, kv, " ")
        for (i = 1; i <= n; i++) { split(kv[i], p, "="); bound[p[1]] = p[2] }
    }
    function quantile(side, p,   n, h, i) {
        n = count[side]
        h = (n - 1) * p
        i = int(h)
        if (i + 1 >= n) return sorted[side, i]
        return sorted[side, i] + (h - i) * (sorted[side, i + 1] - sorted[side, i])
    }
    function quartiles(side) {
        return sprintf("%.6g [%.6g, %.6g]", quantile(side, 0.5), quantile(side, 0.25), quantile(side, 0.75))
    }
    $1 != metric {
        if (metric != "") report()
        metric = $1
        delete count; delete sorted; delete by_pair
        count["base"] = 0; count["change"] = 0
    }
    {
        sorted[$2, count[$2]++] = $3
        by_pair[$2, $4] = $3
    }
    function report(   won, i, b, c, higher, mb, mc, iqr, better, apart, verdict) {
        higher = (metric == "throughput_events_s")
        won = 0
        for (i = 1; i <= pairs; i++) {
            b = by_pair["base", i]; c = by_pair["change", i]
            if ((higher && c > b) || (!higher && c < b)) won++
        }
        mb = quantile("base", 0.5); mc = quantile("change", 0.5)
        iqr = quantile("base", 0.75) - quantile("base", 0.25)
        better = higher ? mc - mb : mb - mc
        # Every change run better than every base run (runs sort ascending).
        apart = higher ? sorted["change", 0] > sorted["base", count["base"] - 1] \
                       : sorted["change", count["change"] - 1] < sorted["base", 0]
        verdict = "-"
        if (10 * won >= 9 * pairs && better > iqr) verdict = "gain"
        else if ((metric in bound) && -better > bound[metric] * mb) verdict = "worse"
        else if ((metric in bound) && iqr > bound[metric] * mb && !apart) verdict = "unresolved"
        line[metric] = sprintf("%-20s %-34s %-34s %7.3fx  %-3s  %5s  %s", metric, quartiles("base"),
            quartiles("change"), (mb == 0 ? 0 : mc / mb), ((mc - mb > iqr || mb - mc > iqr) ? "yes" : "no"),
            won "/" pairs, verdict)
    }
    END {
        if (metric != "") report()
        printf "%-20s %-34s %-34s %8s  %-3s  %5s  %s\n", "metric", "base median [q1, q3]",
            "change median [q1, q3]", "ratio", ">iqr", "won", "verdict"
        n = split(order, names, " ")
        for (i = 1; i <= n; i++) if (names[i] in line) print line[names[i]]
    }'
    awk '
        { attempted[$1] += $2; failed[$1] += $3 }
        function share(side) { return attempted[side] ? failed[side] / attempted[side] : 0 }
        function shown(side) { return sprintf("%.0f/%.0f = %.6g", failed[side], attempted[side], share(side)) }
        END {
            printf "%-20s %-34s %-34s %8s  %-3s  %5s  %s\n", "failed/attempted", shown("base"), shown("change"),
                (share("base") ? sprintf("%.3fx", share("change") / share("base")) : "-"), "-", "-",
                (share("change") > share("base") ? "worse" : "-")
        }' "$results.ops"
}

for workload in "${workloads[@]}"; do
    for seed in "${seeds[@]}"; do
        results="$work/results-$workload-$seed.txt"
        : >"$results"
        : >"$results.ops"
        for ((i = 1; i <= pairs; i++)); do
            echo "$workload, seed $seed: pair $i/$pairs" >&2
            if ((i % 2)); then
                run "$workload" "$seed" base "$i" "$results"
                run "$workload" "$seed" change "$i" "$results"
            else
                run "$workload" "$seed" change "$i" "$results"
                run "$workload" "$seed" base "$i" "$results"
            fi
        done
        summarize "$workload" "$seed" "$results"
        echo
    done
done
if [ -e "$work/incorrect" ]; then
    echo "error: a run printed \"correct\": false" >&2
    exit 1
fi
