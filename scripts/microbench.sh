#!/usr/bin/env bash
# Runs the memory-stage microbenchmarks: port arbitration (naive slice
# walk vs. batched bucket mirror, conflict-free and conflict-heavy
# offered sets) and `Hierarchy::access`, plus the broader hbdc-bench
# micro suite when `--all` is passed.
#
# These are advisory numbers — there is no pass/fail band here (the
# ±15% end-to-end gate lives in scripts/perf_guard.sh). The vendored
# criterion shim prints the median time per iteration; compare the
# naive/batched pairs to see the incremental-arbitration win directly.
#
# Usage: scripts/microbench.sh [--all]
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -q -p hbdc-core --bench arb
if [ "${1:-}" = "--all" ]; then
    cargo bench -q -p hbdc-bench --bench micro
fi
