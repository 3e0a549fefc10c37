#!/usr/bin/env bash
# Interleaved A/B of simulator throughput: a base revision against the
# working tree, on one host, in one session.
#
#   scripts/ab.sh REV [--scale test|small|full] [--pairs N] [--bench NAME]...
#
# REV's `throughput` bin is built in a temporary `git worktree` (offline:
# the vendored crates suffice) and the working tree's is built in place.
# Then, for each benchmark (default: all ten), the two binaries run
# `throughput --runs 1 --scale S --bench B` alternately, N pairs
# (default 3) per benchmark, each run in a fresh directory so neither
# writes into the repo. The side that runs first alternates from pair to
# pair (AB BA AB ...), so a host slowing down or speeding up during a
# session does not favour one side. Each side keeps its own
# trace cache, so only the first run per side and benchmark captures.
#
# The measured rate is `cycles_per_sec`: simulated cycles per second of
# simulator thread CPU time. The script prints, per benchmark, the
# median head/base ratio, its min/max and the number of pairs head won,
# then the median over every pair of every benchmark. It appends one
# summary JSON with the raw rates to `results/bench_history/`, numbered
# after the existing entries.
#
# `scripts/ab.sh HEAD` on a clean tree is an A/A: both sides run the
# same code, so its ratios show this host's noise floor.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/ab.sh REV [--scale test|small|full] [--pairs N] [--bench NAME]..." >&2
    exit 2
}

[ $# -ge 1 ] || usage
rev_arg=$1
shift
scale=small
pairs=3
benches=()
while [ $# -gt 0 ]; do
    case "$1" in
        --scale) scale=${2:?}; shift 2 ;;
        --pairs) pairs=${2:?}; shift 2 ;;
        --bench) benches+=("${2:?}"); shift 2 ;;
        *) usage ;;
    esac
done
case "$scale" in test | small | full) ;; *) usage ;; esac
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
[ ${#benches[@]} -gt 0 ] ||
    benches=(compress gcc go li perl hydro2d mgrid su2cor swim wave5)

base_rev=$(git rev-parse --verify "$rev_arg^{commit}")
head_rev=$(git rev-parse HEAD)
head_label=${head_rev:0:12}
[ -z "$(git status --porcelain --untracked-files=no)" ] || head_label+="+dirty"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/hbdc-ab.XXXXXX")"
cleanup() {
    git worktree remove --force "$tmp/base-src" 2>/dev/null || true
    git worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "building base ${base_rev:0:12} in a worktree"
git worktree add --detach -q "$tmp/base-src" "$base_rev"
CARGO_TARGET_DIR="$tmp/base-target" cargo build --release --offline -q \
    --manifest-path "$tmp/base-src/Cargo.toml" -p hbdc-bench --bin throughput
cp "$tmp/base-target/release/throughput" "$tmp/base-throughput"
rm -rf "$tmp/base-target"
echo "building head $head_label in place"
cargo build --release --offline -q -p hbdc-bench --bin throughput
cp target/release/throughput "$tmp/head-throughput"

# run_rate <side> <bench>: one single-repetition run; prints its rate.
run_rate() {
    local dir="$tmp/run-$1"
    rm -rf "$dir"
    mkdir -p "$dir"
    (cd "$dir" && "$tmp/$1-throughput" --runs 1 --scale "$scale" --bench "$2" \
        --trace-cache "$tmp/traces-$1" >/dev/null 2>&1) ||
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
