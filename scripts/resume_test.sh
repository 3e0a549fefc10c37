#!/usr/bin/env bash
# Kill-and-resume integration test for the journaled matrix runner.
#
# Runs a journaled `hbdc-sim campaign table3` and SIGKILLs it mid-flight
# (after at least one cell has been journaled), which gives the process no
# chance to react; Ctrl-C ends a campaign the same way. The journal is
# then resumed: its recorded cells are served and the in-flight ones run
# again, and the resumed campaign's stdout must be byte-identical to an
# uninterrupted run of the same matrix.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d "${TMPDIR:-/tmp}/hbdc-resume.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

cargo build --release -q --bin hbdc-sim
bin="target/release/hbdc-sim"
common=(campaign table3 --scale small --bench compress --threads 1)

echo "-- uninterrupted reference run"
"$bin" "${common[@]}" >"$tmp/fresh.out" 2>"$tmp/fresh.err"

# The journal is rewritten after every completed cell, so once it holds an
# `ok` record more cells are pending: kill the run then.
journal="$tmp/kill.journal"
echo "-- journaled run (will get SIGKILL)"
"$bin" "${common[@]}" --journal "$journal" >"$tmp/killed.out" 2>"$tmp/killed.err" &
pid=$!
for _ in $(seq 1 400); do
    if grep -qs '^ok ' "$journal"; then break; fi
    sleep 0.05
done
grep -qs '^ok ' "$journal" || {
    echo "FAIL: journal never recorded a completed cell" >&2
    kill "$pid" 2>/dev/null || true
    exit 1
}

kill -KILL "$pid" 2>/dev/null || true
status=0
wait "$pid" || status=$?
if [ "$status" -ne 137 ]; then
    echo "FAIL: killed run exited $status, expected 137" >&2
    cat "$tmp/killed.err" >&2
    exit 1
fi
echo "   stopped after $(grep -c '^ok ' "$journal") journaled cell(s), exit $status"

echo "-- resume from the journal"
"$bin" "${common[@]}" --resume "$journal" >"$tmp/resumed.out" 2>"$tmp/resumed.err"
if ! diff -u "$tmp/fresh.out" "$tmp/resumed.out"; then
    echo "FAIL: campaign resumed after SIGKILL differs from the uninterrupted run" >&2
    exit 1
fi

echo "resume test passed: resumed output identical to uninterrupted run after SIGKILL"
