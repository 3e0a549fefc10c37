#!/usr/bin/env bash
# Throughput regression guard: re-measures simulator throughput with the
# `throughput` bin and fails if the aggregate cycles/sec — or any single
# benchmark's cycles/sec — drifts more than ±15% from the checked-in
# baseline in BENCH_throughput.json. Gating per `benchmarks[]` entry
# means a regression confined to one workload class (say, the slow FP
# stencils) fails CI even when the aggregate hides it.
#
# It also gates each benchmark's arbitration-round count (`arb_rounds`)
# to ±20% of the baseline. Unlike the rates, arb_rounds is a
# deterministic property of the simulated machine — host timing cannot
# move it — so any drift past the band means the arbitration work
# profile itself changed (an arbiter invoked more often, the idle
# skipper engaging differently) and the check fails on the first attempt,
# with no noise retry.
#
# Next to that band, each benchmark's `skipped_cycles` must equal the
# baseline exactly, also on the first attempt with no retry. The idle
# skipper is the simulator's only optional fast path and its coverage is
# deterministic, so an idle skipper that silently stops engaging (or
# starts skipping different spans) fails here even though every report
# stays bit-identical.
#
# Set HBDC_SKIP_PERF=1 to skip (e.g. on a loaded or throttled host).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${HBDC_SKIP_PERF:-0}" = "1" ]; then
    echo "perf guard skipped (HBDC_SKIP_PERF=1)"
    exit 0
fi

read_rate() {
    # The aggregate rate is the top-level two-space-indented key; the
    # per-benchmark entries are nested deeper and must not match.
    grep -m1 '^  "cycles_per_sec":' "$1" | grep -o '[0-9]\+'
}

# Emits "name rate" pairs: the aggregate first, then one line per
# benchmarks[] entry. Each entry is a single JSON line, so one sed
# pattern recovers (bench, cycles_per_sec) without a JSON parser.
rates() {
    echo "aggregate $(read_rate "$1")"
    sed -n 's/.*"bench": "\([^"]*\)".*"cycles_per_sec": \([0-9]\+\).*/\1 \2/p' "$1"
}

# check_rates <baseline.json> <measured.json>: prints one line per
# entry (aggregate or benchmark) outside the ±15% band — including a
# benchmark missing from the measurement, which means its cells failed
# — and prints nothing when every entry is within the band.
check_rates() {
    awk -v tol=0.15 '
        NR == FNR { meas[$1] = $2; next }
        {
            if (!($1 in meas)) { printf "%s missing\n", $1; next }
            d = (meas[$1] - $2) / $2
            if (d > tol || d < -tol)
                printf "%s %d vs baseline %d (%+.1f%%)\n", $1, meas[$1], $2, d * 100
        }
    ' <(rates "$2") <(rates "$1")
}

# Emits "name arb_rounds" pairs, one line per benchmarks[] entry.
arb_rounds() {
    sed -n 's/.*"bench": "\([^"]*\)".*"arb_rounds": \([0-9]\+\).*/\1 \2/p' "$1"
}

# check_arb <baseline.json> <measured.json>: prints one line per
# benchmark whose deterministic arb_rounds count left the ±20% band
# (or went missing), nothing when all are inside it.
check_arb() {
    awk -v tol=0.20 '
        NR == FNR { meas[$1] = $2; next }
        {
            if (!($1 in meas)) { printf "%s arb_rounds missing\n", $1; next }
            d = (meas[$1] - $2) / $2
            if (d > tol || d < -tol)
                printf "%s arb_rounds %d vs baseline %d (%+.1f%%)\n", $1, meas[$1], $2, d * 100
        }
    ' <(arb_rounds "$2") <(arb_rounds "$1")
}

# Emits "name skipped_cycles" pairs, one line per benchmarks[] entry.
skipped() {
    sed -n 's/.*"bench": "\([^"]*\)".*"skipped_cycles": \([0-9]\+\).*/\1 \2/p' "$1"
}

# check_skipped <baseline.json> <measured.json>: prints one line per
# benchmark whose deterministic skipped_cycles count differs from the
# baseline (or went missing), nothing when all match exactly.
check_skipped() {
    awk '
        NR == FNR { meas[$1] = $2; next }
        {
            if (!($1 in meas)) { printf "%s skipped_cycles missing\n", $1; next }
            if (meas[$1] != $2)
                printf "%s skipped_cycles %d vs baseline %d\n", $1, meas[$1], $2
        }
    ' <(skipped "$2") <(skipped "$1")
}

baseline=$(read_rate BENCH_throughput.json)
[ -n "$baseline" ] || { echo "FAIL: no cycles_per_sec in BENCH_throughput.json" >&2; exit 1; }

cargo build --release -q -p hbdc-bench --bin throughput
tmp="$(mktemp -d "${TMPDIR:-/tmp}/hbdc-perf.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
bin="$PWD/target/release/throughput"

# Traces are captured once into a cache directory and replayed on every
# attempt. CI persists the corpus across runs via HBDC_TRACE_CACHE so
# the guard measures replay-mode throughput with a warm cache — the
# same regime the checked-in baseline was recorded under.
trace_cache="${HBDC_TRACE_CACHE:-$tmp/traces}"

# The measurement is host-timing-sensitive: a single run can push one
# small benchmark past the band by noise alone. A clean attempt passes
# outright; otherwise the gate fails only on drift that reproduces in
# the SAME entry across two attempts — a band miss that moves between
# benchmarks is host noise, a real regression sits still.
prev=""
for attempt in 1 2; do
    (cd "$tmp" && "$bin" --scale small --trace-cache "$trace_cache" >/dev/null)
    rate=$(read_rate "$tmp/BENCH_throughput.json")
    echo "measured $rate cycles/sec aggregate (baseline $baseline, attempt $attempt)"
    if [ "$attempt" = 1 ]; then
        arb_viol="$(check_arb BENCH_throughput.json "$tmp/BENCH_throughput.json")"
        if [ -n "$arb_viol" ]; then
            echo "$arb_viol" | sed 's/^/  /'
            echo "FAIL: deterministic arb_rounds profile drifted past ±20%" >&2
            exit 1
        fi
        echo "arb_rounds profile within ±20% of baseline for every benchmark"
        skip_viol="$(check_skipped BENCH_throughput.json "$tmp/BENCH_throughput.json")"
        if [ -n "$skip_viol" ]; then
            echo "$skip_viol" | sed 's/^/  /'
            echo "FAIL: deterministic skipped_cycles coverage changed" >&2
            exit 1
        fi
        echo "skipped_cycles identical to baseline for every benchmark"
    fi
    viol="$(check_rates BENCH_throughput.json "$tmp/BENCH_throughput.json")"
    if [ -z "$viol" ]; then
        echo "perf guard passed: aggregate and every benchmark within ±15% of baseline"
        exit 0
    fi
    echo "$viol" | sed 's/^/  /'
    if [ -n "$prev" ]; then
        persistent=$(comm -12 <(echo "$prev" | awk '{print $1}' | sort) \
                              <(echo "$viol" | awk '{print $1}' | sort) | tr '\n' ' ')
        if [ -z "${persistent// /}" ]; then
            echo "perf guard passed: no drift reproduced in the same entry across attempts"
            exit 0
        fi
        echo "FAIL: ±15% drift reproduced in both attempts: $persistent" >&2
        exit 1
    fi
    prev="$viol"
done
