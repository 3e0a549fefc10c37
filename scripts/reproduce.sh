#!/usr/bin/env bash
# Regenerates every paper artifact with one campaign and diffs each
# against its checked-in copy: `results/small/*.txt` at `--scale small`
# (the default, and CI's configuration) or `results/*.txt` at
# `--scale full`. An artifact the campaign writes without a checked-in
# copy fails the run too. The checked-in files are generated output:
# refresh them with `hbdc-sim campaign all --scale S --out DIR`, never by
# hand.
#
# Usage: scripts/reproduce.sh [--scale small|full]
set -euo pipefail
cd "$(dirname "$0")/.."

scale=small
if [ "${1:-}" = "--scale" ]; then
    scale="${2:-}"
fi
case "$scale" in
    small) expected=results/small ;;
    full) expected=results ;;
    *)
        echo "usage: $0 [--scale small|full]" >&2
        exit 2
        ;;
esac

tmp="$(mktemp -d "${TMPDIR:-/tmp}/hbdc-reproduce.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

cargo build --release -q --bin hbdc-sim
start=$(date +%s)
target/release/hbdc-sim campaign all --scale "$scale" --out "$tmp/out"
echo "campaign all --scale $scale: $(($(date +%s) - start)) s of wall time"

status=0
for want in "$expected"/*.txt; do
    name="$(basename "$want")"
    if ! diff -u "$want" "$tmp/out/$name"; then
        echo "FAIL: $name differs from $want" >&2
        status=1
    fi
done
# An artifact with no checked-in copy would go ungated without this.
made=0
for got in "$tmp/out"/*.txt; do
    made=$((made + 1))
    if [ ! -e "$expected/$(basename "$got")" ]; then
        echo "FAIL: the campaign wrote $(basename "$got"), which has no copy in $expected/" >&2
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "reproduce passed: all $made artifacts match $expected/"
fi
exit "$status"
