#!/usr/bin/env bash
# Differential-fuzzing smoke (~30 s): proves the catch -> shrink ->
# artifact pipeline fires on an injected fault, then runs a short seeded
# session across the full relation catalog. Zero violations expected —
# any repro the session writes is printed and fails the gate.
#
# HBDC_FUZZ_SEED / HBDC_FUZZ_BUDGET override the session for ad-hoc or
# nightly use (the nightly CI job runs a much larger budget).
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${HBDC_FUZZ_SEED:-1}"
BUDGET="${HBDC_FUZZ_BUDGET:-200}"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/hbdc-fuzz-smoke.XXXXXX")"
cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT

cargo build --release -q --bin hbdc-sim
bin="target/release/hbdc-sim"

echo "-- fault-injection self-test (auditor catches, shrinker reduces)"
"$bin" fuzz --selftest --corpus "$tmp/selftest-corpus"

echo "-- seeded session: seed $SEED, budget $BUDGET"
status=0
"$bin" fuzz --seed "$SEED" --budget "$BUDGET" --small --matrix-every 50 \
    --corpus "$tmp/corpus" || status=$?
if [ "$status" -ne 0 ]; then
    echo "FAIL: fuzz session exited $status; repro artifacts:" >&2
    find "$tmp/corpus" -type f | sed 's/^/   /' >&2 || true
    for r in "$tmp/corpus"/*/report.txt; do
        [ -e "$r" ] && { echo "--- $r" >&2; cat "$r" >&2; }
    done
    exit "$status"
fi

echo "fuzz smoke passed: self-test + $BUDGET-program session clean"
