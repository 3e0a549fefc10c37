#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

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

echo "== kill-and-resume integration test"
scripts/resume_test.sh

echo "== trace round-trip (capture -> file -> replay == in-memory capture)"
scripts/trace_roundtrip.sh

echo "== differential fuzz smoke (self-test + seeded session)"
scripts/fuzz_smoke.sh

echo "== throughput regression guard (HBDC_SKIP_PERF=1 to skip)"
scripts/perf_guard.sh

echo "All checks passed."
