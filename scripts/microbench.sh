#!/usr/bin/env bash
# Runs the memory-stage microbenchmarks: each port model's one
# arbitration round (ideal, replicated, banked, LBIC) on conflict-free
# and conflict-heavy offered sets, each served and refilled every round
# to hold the backlog depth, `Hierarchy::access`, the LSQ
# classification layer (ns per `Lsq` event on a standing-backlog
# schedule) and the dispatch path (ns per instruction of the gcc and swim
# streams dispatched into the window and LSQ), plus the broader
# hbdc-bench micro suite when `--all` is passed.
#
# These are advisory numbers — there is no pass/fail band here (the
# end-to-end gate is `scripts/ab.sh REV --perfbench W`, a same-session
# A/B at BENCHMARK.json's bounds). The vendored
# criterion shim prints the median time per iteration; the LSQ and
# dispatch benches print their median ns per event and per instruction.
#
# Usage: scripts/microbench.sh [--all]
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -q -p hbdc-core --bench arb
cargo bench -q -p hbdc-cpu --bench lsq
cargo bench -q -p hbdc-cpu --bench dispatch
if [ "${1:-}" = "--all" ]; then
    cargo bench -q -p hbdc-bench --bench micro
fi
