#!/usr/bin/env bash
# Simulated-behaviour identity gate for the declared benchmark.
#
#   bash bench/sim_identity.sh
#
# Runs every workload of bench/SIM_GOLDEN.json twice at seed 1 with
# `--seconds 0` (set-up plus the deterministic sim prefix, about 40 s of
# CPU in all) and compares what the runs print with the lines recorded
# there, exactly:
#   - `--trace 0`: `failed` and the four sim metrics ("workloads");
#   - `--trace 1`: the 27 deterministic per-layer metrics, every one
#     whose name does not say `host` ("traced"): the PM and allocator
#     counts per op, the L1 miss %, lines per fence, recovery live words,
#     crash points and samples, and the layers' sim shares.
# Host metrics are not compared.  Exit 1 on any difference, printing the
# expected and the actual line; a change that moves simulated behaviour
# on purpose replaces the line in bench/SIM_GOLDEN.json with the actual
# one and says why.
set -euo pipefail
cd "$(dirname "$0")/.."
golden=bench/SIM_GOLDEN.json
metrics="sim_ns_per_op sim_tail_ns pm_words_per_key recover_sim_ms"
status=0

# Compare [line] with the golden line that starts with [key].
check() {
  local what=$1 key=$2 line=$3 expected
  expected=$(grep -F "$key" "$golden" | sed 's/,$//; s/^ *//')
  if [ "$line" = "$expected" ]; then
    echo "sim identity: $what ok"
  else
    echo "sim identity: $what differs"
    echo "  expected $expected"
    echo "  actual   $line"
    status=1
  fi
}

for w in $(sed -n 's/.*{"workload": "\([^"]*\)".*/\1/p' "$golden"); do
  out=$(bash perf/run.sh --workload "$w" --seed 1 --seconds 0 --trace 0 | tail -n 1)
  line="{\"workload\": \"$w\", \"failed\": $(sed -n 's/.*"failed": \([0-9]*\),.*/\1/p' <<<"$out")"
  for m in $metrics; do
    line="$line, \"$m\": $(sed -n "s/.*\"$m\": {\"value\": \\([^,]*\\),.*/\\1/p" <<<"$out")"
  done
  check "$w" "{\"workload\": \"$w\"," "$line}"

  out=$(bash perf/run.sh --workload "$w" --seed 1 --seconds 0 --trace 1 | tail -n 1)
  traced=$(grep -o '"[^"]*": {"value": [^,]*' <<<"$out" | grep -v host \
    | sed 's/: {"value": /: /' | paste -s -d ',' | sed 's/,"/, "/g')
  check "$w --trace 1" "{\"traced\": \"$w\"," "{\"traced\": \"$w\", $traced}"
done
exit $status
