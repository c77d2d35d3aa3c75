#!/usr/bin/env bash
# Net lines of code, the measure ROADMAP.md reports for every change:
# the lines of the OCaml sources (.ml and .mli) under lib/, bin/, bench/
# and examples/.  Tests (test/) and the declared benchmark (perf/) are
# not counted.
#
#   bash bench/loc.sh
#
# Prints one line per directory and the total last.
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for dir in lib bin bench examples; do
  n=$(find "$dir" \( -name '*.ml' -o -name '*.mli' \) -print0 \
    | xargs -0 cat | wc -l)
  echo "$dir $n"
  total=$((total + n))
done
echo "total $total"
