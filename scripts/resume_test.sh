#!/usr/bin/env bash
# Kill-and-resume integration test for the journaled matrix runner.
#
# Starts a journaled `hbdc-sim campaign table3`, SIGINTs it mid-flight (after at
# least one cell has been journaled), asserts the interrupted exit code
# (130), resumes from the journal, and checks the resumed campaign's
# stdout is byte-identical to an uninterrupted run of the same matrix.
#
# The campaign runs `compress`; the runner's cycle-chunked checkpoints
# land at arbitrary cycle counts, so interrupting it also exercises
# snapshots cut while cache fills are in flight and nothing issues (the
# unit goldens in `crates/cpu/src/snapshot.rs` pin such a cut per port
# model).
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d "${TMPDIR:-/tmp}/hbdc-resume.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

cargo build --release -q --bin hbdc-sim
bin="target/release/hbdc-sim"
journal="$tmp/t3.journal"
common=(campaign table3 --scale small --bench compress --threads 1)

echo "-- journaled run (will be interrupted)"
"$bin" "${common[@]}" --journal "$journal" \
    >"$tmp/interrupted.out" 2>"$tmp/interrupted.err" &
pid=$!

# Wait until the run is provably mid-flight: the journal flushes after
# every completed cell, so one `ok` line means more cells are pending.
for _ in $(seq 1 400); do
    if grep -qs '^ok ' "$journal"; then break; fi
    sleep 0.05
done
grep -qs '^ok ' "$journal" || {
    echo "FAIL: journal never recorded a completed cell" >&2
    kill "$pid" 2>/dev/null || true
    exit 1
}

kill -INT "$pid" 2>/dev/null || true
status=0
wait "$pid" || status=$?
if [ "$status" -ne 130 ]; then
    echo "FAIL: interrupted run exited $status, expected 130" >&2
    cat "$tmp/interrupted.err" >&2
    exit 1
fi
done_cells=$(grep -c '^ok ' "$journal")
echo "   interrupted after $done_cells journaled cell(s), exit 130"

echo "-- resume from the journal"
"$bin" "${common[@]}" --resume "$journal" >"$tmp/resumed.out" 2>"$tmp/resumed.err"

echo "-- uninterrupted reference run"
"$bin" "${common[@]}" >"$tmp/fresh.out" 2>"$tmp/fresh.err"

if ! diff -u "$tmp/fresh.out" "$tmp/resumed.out"; then
    echo "FAIL: resumed campaign output differs from the uninterrupted run" >&2
    exit 1
fi

leftover=$(find "$tmp" -name '*.cell*.snap' | wc -l)
if [ "$leftover" -ne 0 ]; then
    echo "FAIL: $leftover cell checkpoint(s) not cleaned up after resume" >&2
    exit 1
fi

echo "resume test passed: resumed output identical to uninterrupted run"
