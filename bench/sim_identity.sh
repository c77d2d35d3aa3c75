#!/usr/bin/env bash
# Simulated-behaviour identity gate for the declared benchmark.
#
#   bash bench/sim_identity.sh
#
# Runs every workload of bench/SIM_GOLDEN.json once at seed 1 with
# `--seconds 0` (set-up plus the deterministic sim prefix, about 25 s of
# CPU in all) and compares `failed` and the four sim metrics, exactly as
# printed, with the line recorded there.  Host metrics are not compared.
# Exit 1 on any difference, printing the expected and the actual line; a
# change that moves simulated behaviour on purpose replaces the line in
# bench/SIM_GOLDEN.json with the actual one and says why.
set -euo pipefail
cd "$(dirname "$0")/.."
golden=bench/SIM_GOLDEN.json
metrics="sim_ns_per_op sim_tail_ns pm_words_per_key recover_sim_ms"
status=0
for w in $(sed -n 's/.*{"workload": "\([^"]*\)".*/\1/p' "$golden"); do
  out=$(bash perf/run.sh --workload "$w" --seed 1 --seconds 0 --trace 0 | tail -n 1)
  line="{\"workload\": \"$w\", \"failed\": $(sed -n 's/.*"failed": \([0-9]*\),.*/\1/p' <<<"$out")"
  for m in $metrics; do
    line="$line, \"$m\": $(sed -n "s/.*\"$m\": {\"value\": \\([^,]*\\),.*/\\1/p" <<<"$out")"
  done
  line="$line}"
  expected=$(grep -F "{\"workload\": \"$w\"," "$golden" | sed 's/,$//; s/^ *//')
  if [ "$line" = "$expected" ]; then
    echo "sim identity: $w ok"
  else
    echo "sim identity: $w differs"
    echo "  expected $expected"
    echo "  actual   $line"
    status=1
  fi
done
exit $status
