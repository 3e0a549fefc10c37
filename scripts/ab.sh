#!/usr/bin/env bash
# Interleaved A/B of simulator speed: a base revision against the working
# tree, on one host, in one session.
#
#   scripts/ab.sh REV [--scale test|small|full] [--pairs N] [--bench NAME]...
#   scripts/ab.sh REV --perfbench WORKLOAD [--pairs N]
#
# REV's sources are exported with `git archive` into a temporary
# directory and built there (offline: the vendored crates suffice); the
# working tree's binary is built in place. The two binaries then run
# alternately, N pairs, and the side that runs first alternates from pair
# to pair (AB BA AB ...), so a host slowing down or speeding up during a
# session does not favour one side. `scripts/ab.sh HEAD` on a clean tree
# is an A/A: both sides run the same code, so its ratios show this host's
# noise floor.
#
# Throughput mode (the default) runs the `throughput` bin,
# `throughput --runs 1 --scale S --bench B`, N pairs (default 3) per
# benchmark (default: all ten), each run in a fresh directory so neither
# writes into the repo. The measured rate is `cycles_per_sec`: simulated
# cycles per second of simulator thread CPU time, which leaves out the
# trace capture. The script prints, per benchmark, the median head/base ratio, its
# min/max and the number of pairs head won, then the median over every
# pair of every benchmark. It appends one summary JSON with the raw rates
# to `results/bench_history/`, numbered after the existing entries.
#
# Perfbench mode runs the repository benchmark (`perfbench/`, see
# BENCHMARK.json) on one workload, N pairs (default 10), each run
# `--seconds` BENCHMARK.json's `run_seconds` with `--trace 0`; pair i
# uses seed 100 + i on both sides. For each end-to-end metric it prints
# the base and head medians, their ratio, the pairs head won (in the
# metric's `better` direction) and the base runs' interquartile range,
# then every run's values, and it fails if any run was not `correct` or
# failed a cell. Nothing is written to the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/ab.sh REV [--scale test|small|full] [--pairs N] [--bench NAME]..." >&2
    echo "       scripts/ab.sh REV --perfbench WORKLOAD [--pairs N]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
rev_arg=$1
shift
scale=small
pairs=
benches=()
workload=
while [ $# -gt 0 ]; do
    case "$1" in
        --scale) scale=${2:?}; shift 2 ;;
        --pairs) pairs=${2:?}; shift 2 ;;
        --bench) benches+=("${2:?}"); shift 2 ;;
        --perfbench) workload=${2:?}; shift 2 ;;
        *) usage ;;
    esac
done
case "$scale" in test | small | full) ;; *) usage ;; esac
if [ -n "$workload" ]; then
    [ ${#benches[@]} -eq 0 ] || usage
    pairs=${pairs:-10}
else
    pairs=${pairs:-3}
fi
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
[ ${#benches[@]} -gt 0 ] ||
    benches=(compress gcc go li perl hydro2d mgrid su2cor swim wave5)

base_rev=$(git rev-parse --verify "$rev_arg^{commit}")
head_rev=$(git rev-parse HEAD)
head_label=${head_rev:0:12}
[ -z "$(git status --porcelain --untracked-files=no)" ] || head_label+="+dirty"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/hbdc-ab.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

echo "building base ${base_rev:0:12} from git archive"
mkdir "$tmp/base-src"
git archive "$base_rev" | tar -x -C "$tmp/base-src"

if [ -n "$workload" ]; then
    CARGO_TARGET_DIR="$tmp/base-target" cargo build --release --offline -q \
        --manifest-path "$tmp/base-src/perfbench/Cargo.toml"
    cp "$tmp/base-target/release/perfbench" "$tmp/base-perfbench"
    rm -rf "$tmp/base-target" "$tmp/base-src"
    echo "building head $head_label in place"
    cargo build --release --offline -q --manifest-path perfbench/Cargo.toml
    cp perfbench/target/release/perfbench "$tmp/head-perfbench"
    seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

    # run_perfbench <side> <pair>: one run; appends its JSON line to
    # $tmp/<side>.jsonl.
    run_perfbench() {
        "$tmp/$1-perfbench" --workload "$workload" --seed $((100 + $2)) \
            --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1 >>"$tmp/$1.jsonl" ||
            { echo "FAIL: $1 perfbench --workload $workload exited nonzero" >&2; exit 1; }
    }
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run_perfbench base "$i"
            run_perfbench head "$i"
        else
            run_perfbench head "$i"
            run_perfbench base "$i"
        fi
        echo "  $workload pair $i of $pairs done"
    done

    echo
    echo "head ${head_label} / base ${base_rev:0:12}, perfbench $workload, $pairs pair(s) of ${seconds} s runs"
    python3 - "$tmp/base.jsonl" "$tmp/head.jsonl" <<'PY'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
base = [json.loads(line) for line in open(sys.argv[1])]
head = [json.loads(line) for line in open(sys.argv[2])]

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

raw = {}
print(f"{'metric':<18} {'base med':>10} {'head med':>10} {'ratio':>7} {'wins':>6} {'base IQR':>9}")
for m in bench["end_to_end"]:
    name = m["name"]
    b = [r["metrics"][name]["value"] for r in base]
    h = [r["metrics"][name]["value"] for r in head]
    sign = 1 if m["better"] == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(b, h))
    mb, mh = statistics.median(b), statistics.median(h)
    lo, hi = quartiles(b) if len(b) > 1 else (b[0], b[0])
    print(f"{name:<18} {mb:>10.4g} {mh:>10.4g} {mh / mb:>7.3f} {wins:>3}/{len(b):<2} {hi - lo:>9.3g}")
    raw[name] = (b, h)
print("raw values, pair 1 first:")
for name, (b, h) in raw.items():
    print(f"  {name} base: {' '.join(f'{x:.4g}' for x in b)}")
    print(f"  {name} head: {' '.join(f'{x:.4g}' for x in h)}")
bad = [(side, i + 1) for side, runs in (("base", base), ("head", head))
       for i, r in enumerate(runs) if not r["correct"] or r["failed"]]
for side, pair in bad:
    print(f"FAIL: {side} run of pair {pair} was not correct or failed a cell", file=sys.stderr)
sys.exit(1 if bad else 0)
PY
    exit
fi

CARGO_TARGET_DIR="$tmp/base-target" cargo build --release --offline -q \
    --manifest-path "$tmp/base-src/Cargo.toml" -p hbdc-bench --bin throughput
cp "$tmp/base-target/release/throughput" "$tmp/base-throughput"
rm -rf "$tmp/base-target" "$tmp/base-src"
echo "building head $head_label in place"
cargo build --release --offline -q -p hbdc-bench --bin throughput
cp target/release/throughput "$tmp/head-throughput"

# run_rate <side> <bench>: one single-repetition run; prints its rate.
run_rate() {
    local dir="$tmp/run-$1"
    rm -rf "$dir"
    mkdir -p "$dir"
    (cd "$dir" && "$tmp/$1-throughput" --runs 1 --scale "$scale" --bench "$2" \
        >/dev/null 2>&1) ||
        { echo "FAIL: $1 throughput --bench $2 exited nonzero" >&2; exit 1; }
    grep -m1 '^  "cycles_per_sec":' "$dir/BENCH_throughput.json" | grep -o '[0-9]\+'
}

# Rows of "bench base_rate head_rate", one per pair.
rows="$tmp/rows"
: >"$rows"
for b in "${benches[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            base=$(run_rate base "$b")
            head=$(run_rate head "$b")
        else
            head=$(run_rate head "$b")
            base=$(run_rate base "$b")
        fi
        echo "$b $base $head" >>"$rows"
        echo "  $b pair $i: base $base head $head cycles/sec"
    done
done

# Per-benchmark and pooled statistics of head/base. The median of an
# even count is the mean of the two middle ratios.
stats="$tmp/stats"
awk '
    function median(s,   v, j, k, m, t) {
        m = split(s, v, " ")
        for (k = 2; k <= m; k++) {
            t = v[k]
            for (j = k - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
            v[j + 1] = t
        }
        return m % 2 ? v[(m + 1) / 2] : (v[m / 2] + v[m / 2 + 1]) / 2
    }
    {
        r = $3 / $2
        if (!($1 in n)) { order[++nb] = $1; lo[$1] = r; hi[$1] = r }
        n[$1]++
        ratios[$1] = ratios[$1] " " r
        base[$1] = base[$1] (n[$1] > 1 ? ", " : "") $2
        head[$1] = head[$1] (n[$1] > 1 ? ", " : "") $3
        if (r < lo[$1]) lo[$1] = r
        if (r > hi[$1]) hi[$1] = r
        wins[$1] += (r > 1)
        all = all " " r
    }
    END {
        for (i = 1; i <= nb; i++) {
            b = order[i]
            printf "%s %.4f %.4f %.4f %d %d %s|%s\n", b, median(ratios[b]), lo[b], hi[b],
                wins[b], n[b], base[b], head[b]
        }
        printf "aggregate %.4f\n", median(all)
    }
' "$rows" >"$stats"

echo
echo "head ${head_label} / base ${base_rev:0:12}, --scale $scale, $pairs pair(s) per benchmark"
printf "%-10s %8s %8s %8s %6s\n" bench median min max wins
grep -v '^aggregate' "$stats" | while read -r b med lo hi w n _; do
    printf "%-10s %8s %8s %8s %3s/%s\n" "$b" "$med" "$lo" "$hi" "$w" "$n"
done
aggregate=$(awk '/^aggregate/ { print $2 }' "$stats")
echo "aggregate median ratio $aggregate"

json="$tmp/summary.json"
{
    echo "{"
    echo "  \"name\": \"throughput-ab\","
    echo "  \"base\": \"${base_rev:0:12}\","
    echo "  \"head\": \"$head_label\","
    echo "  \"scale\": \"$scale\","
    echo "  \"pairs\": $pairs,"
    echo "  \"metric\": \"cycles_per_sec\","
    echo "  \"aggregate_median_ratio\": $aggregate,"
    echo "  \"benchmarks\": ["
    grep -v '^aggregate' "$stats" | while read -r b med lo hi w n rest; do
        echo "    { \"bench\": \"$b\", \"median_ratio\": $med, \"min_ratio\": $lo, \"max_ratio\": $hi, \"wins\": $w, \"pairs\": $n, \"base_cycles_per_sec\": [${rest%%|*}], \"head_cycles_per_sec\": [${rest#*|}] },"
    done | sed '$ s/,$//'
    echo "  ]"
    echo "}"
} >"$json"

mkdir -p results/bench_history
seq=$(find results/bench_history -maxdepth 1 -name '[0-9]*.json' -printf '%f\n' |
    sed 's/-.*//' | sort -n | tail -1)
seq=$((10#${seq:-0} + 1))
out=$(printf "results/bench_history/%04d-ab-%s-%s.json" "$seq" "${base_rev:0:12}" "${head_label/+/-}")
cp "$json" "$out"
echo "wrote $out"
