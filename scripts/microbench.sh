#!/usr/bin/env bash
# Runs the memory-stage microbenchmarks: each port model's one
# arbitration round (ideal, replicated, banked, LBIC) on conflict-free
# and conflict-heavy offered sets, with the banked mirror fed
# offered-set deltas the way the simulator feeds it, and
# `Hierarchy::access`, plus the broader hbdc-bench micro suite when
# `--all` is passed.
#
# These are advisory numbers — there is no pass/fail band here (the
# ±15% end-to-end gate lives in scripts/perf_guard.sh). The vendored
# criterion shim prints the median time per iteration.
#
# Usage: scripts/microbench.sh [--all]
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -q -p hbdc-core --bench arb
if [ "${1:-}" = "--all" ]; then
    cargo bench -q -p hbdc-bench --bench micro
fi
