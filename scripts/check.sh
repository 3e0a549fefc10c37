#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests, and a same-session
# speed A/B of the working tree against HEAD. Run before pushing.
# HBDC_SKIP_PERF=1 skips the A/B (e.g. on a loaded or throttled host).
set -euo pipefail
cd "$(dirname "$0")/.."

# Building perfbench rewrites its lock file when the lock is stale; put
# it back as it was found, so the gate leaves the tree as it found it.
lock="$(mktemp "${TMPDIR:-/tmp}/hbdc-check-lock.XXXXXX")"
cp perfbench/Cargo.lock "$lock"
trap 'cp "$lock" perfbench/Cargo.lock; rm -f "$lock"' EXIT

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy (no unwrap on the simulate path)"
cargo clippy -p hbdc-core -p hbdc-cpu --lib -- -D warnings -D clippy::unwrap_used

echo "== cargo doc -D warnings (no dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q \
    --exclude proptest --exclude rand --exclude criterion

echo "== cargo test"
cargo test --workspace -q

echo "== cargo test --features audit (invariant auditor on)"
cargo test -p hbdc-cpu -p hbdc-bench -p hbdc-fuzz --features audit -q

echo "== perfbench's own tests (stable API + expected.txt checks)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cp "$lock" perfbench/Cargo.lock

echo "== kill-and-resume integration test"
scripts/resume_test.sh

echo "== trace round-trip (capture -> file -> replay == in-memory capture)"
scripts/trace_roundtrip.sh

echo "== differential fuzz smoke (self-test + seeded session)"
scripts/fuzz_smoke.sh

echo "== speed A/B against HEAD at BENCHMARK.json's bounds (HBDC_SKIP_PERF=1 to skip)"
if [ "${HBDC_SKIP_PERF:-0}" = "1" ]; then
    echo "skipped (HBDC_SKIP_PERF=1)"
else
    scripts/ab.sh HEAD --perfbench stencil-backlog --perfbench int-shallow \
        --perfbench checkpoint-resume --pairs 1
fi

echo "All checks passed."
