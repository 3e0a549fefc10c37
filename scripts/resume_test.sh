#!/usr/bin/env bash
# Interrupt-and-resume and kill-and-resume integration test for the
# journaled matrix runner.
#
# Runs a journaled `hbdc-sim campaign table3` twice and stops each run
# mid-flight (after at least one cell has been journaled): once with
# SIGINT, which must checkpoint the in-flight cells and exit 130, and once
# with SIGKILL, which gives the process no chance to react. Each journal
# is then resumed, and the resumed campaign's stdout must be
# byte-identical to an uninterrupted run of the same matrix.
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
common=(campaign table3 --scale small --bench compress --threads 1)

echo "-- uninterrupted reference run"
"$bin" "${common[@]}" >"$tmp/fresh.out" 2>"$tmp/fresh.err"

# stop_and_resume SIGNAL EXPECTED_STATUS: starts a journaled run, sends
# SIGNAL once the journal holds an `ok` record (the journal is rewritten
# after every completed cell, so more cells are then pending), checks the
# exit status, resumes the journal and diffs the result.
stop_and_resume() {
    local sig=$1 want=$2
    local journal="$tmp/$sig.journal"
    echo "-- journaled run (will get SIG$sig)"
    "$bin" "${common[@]}" --journal "$journal" \
        >"$tmp/$sig.stopped.out" 2>"$tmp/$sig.stopped.err" &
    local pid=$!
    for _ in $(seq 1 400); do
        if grep -qs '^ok ' "$journal"; then break; fi
        sleep 0.05
    done
    grep -qs '^ok ' "$journal" || {
        echo "FAIL: journal never recorded a completed cell" >&2
        kill "$pid" 2>/dev/null || true
        exit 1
    }

    kill "-$sig" "$pid" 2>/dev/null || true
    local status=0
    wait "$pid" || status=$?
    if [ "$status" -ne "$want" ]; then
        echo "FAIL: SIG$sig run exited $status, expected $want" >&2
        cat "$tmp/$sig.stopped.err" >&2
        exit 1
    fi
    local done_cells
    done_cells=$(grep -c '^ok ' "$journal")
    echo "   stopped after $done_cells journaled cell(s), exit $status"

    echo "-- resume from the journal"
    "$bin" "${common[@]}" --resume "$journal" >"$tmp/$sig.resumed.out" 2>"$tmp/$sig.resumed.err"
    if ! diff -u "$tmp/fresh.out" "$tmp/$sig.resumed.out"; then
        echo "FAIL: campaign resumed after SIG$sig differs from the uninterrupted run" >&2
        exit 1
    fi
    local leftover
    leftover=$(find "$tmp" -name '*.cell*.snap' | wc -l)
    if [ "$leftover" -ne 0 ]; then
        echo "FAIL: $leftover cell checkpoint(s) not cleaned up after resume" >&2
        exit 1
    fi
}

stop_and_resume INT 130
stop_and_resume KILL 137

echo "resume test passed: resumed output identical to uninterrupted run after SIGINT and SIGKILL"
