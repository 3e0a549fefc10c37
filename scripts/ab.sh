#!/usr/bin/env bash
# Interleaved A/B of simulator speed over the repository benchmark
# (`perfbench/`, see BENCHMARK.json): a base revision against the working
# tree, on one host, in one session.
#
#   scripts/ab.sh REV --perfbench WORKLOAD [--perfbench WORKLOAD]... [--pairs N]
#
# REV's sources are exported with `git archive` into a temporary
# directory and its perfbench is built there (offline: the vendored
# crates suffice); the working tree's perfbench is built in place. Both
# are built once, whatever the number of workloads. For each workload the
# two binaries then run alternately, N pairs (default 10), and the side
# that runs first alternates from pair to pair (AB BA AB ...), so a host
# slowing down or speeding up during a session does not favour one side.
# Each run lasts BENCHMARK.json's `run_seconds`, with `--trace 0`; pair i
# uses seed 100 + i on both sides. `scripts/ab.sh HEAD` on a clean tree
# is an A/A: both sides run the same code, so its ratios show this host's
# noise floor.
#
# For each end-to-end metric the script prints the base and head medians,
# their ratio, the pairs head won (in the metric's `better` direction) and
# the base runs' interquartile range, then every run's values. It exits 1
# if any run was not `correct` or failed a cell, or if any metric's head
# median is worse than its base median by more than that metric's `bound`
# in BENCHMARK.json, naming the metric. Nothing in the repository is left
# changed: the in-place build rewrites a stale `perfbench/Cargo.lock`, so
# the lock is restored on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/ab.sh REV --perfbench WORKLOAD [--perfbench WORKLOAD]... [--pairs N]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
rev_arg=$1
shift
pairs=10
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs=${2:?}; shift 2 ;;
        --perfbench) workloads+=("${2:?}"); shift 2 ;;
        *) usage ;;
    esac
done
[ ${#workloads[@]} -gt 0 ] || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

base_rev=$(git rev-parse --verify "$rev_arg^{commit}")
head_rev=$(git rev-parse HEAD)
head_label=${head_rev:0:12}
[ -z "$(git status --porcelain --untracked-files=no)" ] || head_label+="+dirty"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/hbdc-ab.XXXXXX")"
cp perfbench/Cargo.lock "$tmp/Cargo.lock"
trap 'cp "$tmp/Cargo.lock" perfbench/Cargo.lock; rm -rf "$tmp"' EXIT

echo "building base ${base_rev:0:12} from git archive"
mkdir "$tmp/base-src"
git archive "$base_rev" | tar -x -C "$tmp/base-src"
CARGO_TARGET_DIR="$tmp/base-target" cargo build --release --offline -q \
    --manifest-path "$tmp/base-src/perfbench/Cargo.toml"
cp "$tmp/base-target/release/perfbench" "$tmp/base-perfbench"
rm -rf "$tmp/base-target" "$tmp/base-src"
echo "building head $head_label in place"
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml
cp perfbench/target/release/perfbench "$tmp/head-perfbench"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

# run_perfbench <side> <workload> <pair>: one run; appends its JSON line
# to $tmp/<workload>.<side>.jsonl.
run_perfbench() {
    "$tmp/$1-perfbench" --workload "$2" --seed $((100 + $3)) \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1 >>"$tmp/$2.$1.jsonl" ||
        { echo "FAIL: $1 perfbench --workload $2 exited nonzero" >&2; exit 1; }
}
for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run_perfbench base "$w" "$i"
            run_perfbench head "$w" "$i"
        else
            run_perfbench head "$w" "$i"
            run_perfbench base "$w" "$i"
        fi
        echo "  $w pair $i of $pairs done"
    done
done

python3 - "$tmp" "${base_rev:0:12}" "$head_label" "$seconds" "$pairs" "${workloads[@]}" <<'PY'
import json, statistics, sys

tmp, base_rev, head_label, seconds, pairs, *workloads = sys.argv[1:]
bench = json.load(open("BENCHMARK.json"))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

failures = []
for w in workloads:
    base = [json.loads(line) for line in open(f"{tmp}/{w}.base.jsonl")]
    head = [json.loads(line) for line in open(f"{tmp}/{w}.head.jsonl")]
    print(f"\nhead {head_label} / base {base_rev}, perfbench {w}, {pairs} pair(s) of {seconds} s runs")
    print(f"{'metric':<18} {'base med':>10} {'head med':>10} {'ratio':>7} {'wins':>6} {'base IQR':>9} {'bound':>6}")
    raw = {}
    for m in bench["end_to_end"]:
        name = m["name"]
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, h))
        mb, mh = statistics.median(b), statistics.median(h)
        lo, hi = quartiles(b)
        print(f"{name:<18} {mb:>10.4g} {mh:>10.4g} {mh / mb:>7.3f} {wins:>3}/{len(b):<2} {hi - lo:>9.3g} {m['bound']:>6}")
        # Worse by more than the bound, relative to the base median.
        if sign * (mb - mh) > m["bound"] * mb:
            failures.append(f"{w} {name}: head median {mh:.4g} is worse than base median "
                            f"{mb:.4g} by more than its bound {m['bound']}")
        raw[name] = (b, h)
    print("raw values, pair 1 first:")
    for name, (b, h) in raw.items():
        print(f"  {name} base: {' '.join(f'{x:.4g}' for x in b)}")
        print(f"  {name} head: {' '.join(f'{x:.4g}' for x in h)}")
    for side, runs in (("base", base), ("head", head)):
        for i, r in enumerate(runs):
            if not r["correct"] or r["failed"]:
                failures.append(f"{w}: {side} run of pair {i + 1} was not correct or failed a cell")
for f in failures:
    print(f"FAIL: {f}", file=sys.stderr)
sys.exit(1 if failures else 0)
PY
