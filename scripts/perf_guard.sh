#!/usr/bin/env bash
# Throughput regression guard: re-measures simulator throughput with the
# `throughput` bin and fails if the aggregate cycles/sec — or any single
# benchmark's cycles/sec — drifts more than ±15% from the checked-in
# baseline in BENCH_throughput.json. Gating per `benchmarks[]` entry
# means a regression confined to one workload class (say, the slow FP
# stencils) fails CI even when the aggregate hides it.
#
# It also gates two deterministic counters per benchmark for exact
# equality with the baseline, on the first attempt with no noise retry:
#
# * `arb_rounds`, the arbitration rounds the simulated machine ran.
#   Host timing cannot move it, so any difference means the arbitration
#   work profile itself changed (an arbiter invoked more or less often,
#   the idle skipper engaging differently).
# * `skipped_cycles`. The idle skipper is the simulator's only optional
#   fast path and its coverage is deterministic, so an idle skipper that
#   silently stops engaging (or starts skipping different spans) fails
#   here even though every report stays bit-identical.
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

# counter <name> <file>: emits "bench value" pairs of one deterministic
# counter, one line per benchmarks[] entry.
counter() {
    sed -n 's/.*"bench": "\([^"]*\)".*"'"$1"'": \([0-9]\+\).*/\1 \2/p' "$2"
}

# check_exact <name> <baseline.json> <measured.json>: prints one line per
# benchmark whose counter differs from the baseline (or went missing),
# nothing when all match exactly.
check_exact() {
    awk -v name="$1" '
        NR == FNR { meas[$1] = $2; next }
        {
            if (!($1 in meas)) { printf "%s %s missing\n", $1, name; next }
            if (meas[$1] != $2)
                printf "%s %s %d vs baseline %d\n", $1, name, meas[$1], $2
        }
    ' <(counter "$1" "$3") <(counter "$1" "$2")
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
        for name in arb_rounds skipped_cycles; do
            exact_viol="$(check_exact "$name" BENCH_throughput.json "$tmp/BENCH_throughput.json")"
            if [ -n "$exact_viol" ]; then
                echo "$exact_viol" | sed 's/^/  /'
                echo "FAIL: deterministic $name changed" >&2
                exit 1
            fi
            echo "$name identical to baseline for every benchmark"
        done
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
