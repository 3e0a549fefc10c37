#!/usr/bin/env bash
# HBTR on-disk round-trip gate: writes a trace to a file with `hbdc-sim
# trace capture`, verifies `trace info` reads the sealed file back, and
# checks that `trace replay` of that file reports bit-identically to
# `hbdc-sim run`, which replays an in-memory capture of the same program,
# under each of four port models. This is the shell-level counterpart of
# the replay_golden test suite: it exercises the actual CLI surface and
# the on-disk format.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q --bin hbdc-sim
bin="$PWD/target/release/hbdc-sim"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/hbdc-trace.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

"$bin" trace capture bench:li --scale test -o "$tmp/li.hbtr" >/dev/null
"$bin" trace info "$tmp/li.hbtr" | grep -q 'complete *yes' || {
    echo "FAIL: trace info does not report a complete capture" >&2
    exit 1
}

# A flipped byte in the sealed stream must be a typed error, not a panic
# or a silent misparse.
cp "$tmp/li.hbtr" "$tmp/corrupt.hbtr"
printf '\xff' | dd of="$tmp/corrupt.hbtr" bs=1 seek=64 conv=notrunc status=none
if "$bin" trace info "$tmp/corrupt.hbtr" >/dev/null 2>"$tmp/err.txt"; then
    echo "FAIL: corrupted trace was accepted" >&2
    exit 1
fi
grep -qi 'hbdc-sim:' "$tmp/err.txt" || {
    echo "FAIL: corrupted trace did not produce a typed CLI error" >&2
    exit 1
}

# Replay of the file (trace capture -> file -> trace replay) against
# `run`'s in-memory capture. The first report line names the input
# (program path vs trace path), so the comparison starts at line 2.
for port in ideal:4 bank:4 lbic:4x2 repl:2; do
    "$bin" run bench:li --scale test --port "$port" | tail -n +2 >"$tmp/memory.txt"
    "$bin" trace replay "$tmp/li.hbtr" --port "$port" | tail -n +2 >"$tmp/file.txt"
    diff -u "$tmp/memory.txt" "$tmp/file.txt" || {
        echo "FAIL: replaying the HBTR file diverges from an in-memory capture under $port" >&2
        exit 1
    }
done
echo "trace round-trip passed: the HBTR file replays bit-identically to an in-memory capture for 4 port models"
