#!/usr/bin/env bash
# Benchmark entry point: builds the benchmark from source, then runs it.
#
#   bash perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root (or anywhere: it changes there first).
# The build goes to _build/ with dune's shared cache off, so nothing is
# written outside the checkout; build output goes to stderr, and the
# benchmark prints its JSON result as the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./perf/main.exe >&2
exec ./_build/default/perf/main.exe "$@"
