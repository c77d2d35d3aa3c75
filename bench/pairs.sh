#!/usr/bin/env bash
# Paired comparison of two builds of the declared benchmark, the protocol
# of perf/README.md "Comparing two commits":
#
#   bash bench/pairs.sh PARENT_EXE CHANGE_EXE WORKLOAD SEED PAIRS SECONDS
#
# PARENT_EXE and CHANGE_EXE are perf/main.exe as built from each commit's
# own clean checkout.  Runs PAIRS pairs of `--workload WORKLOAD --seed
# SEED --seconds SECONDS --trace 0`, the parent first in odd pairs and the
# change first in even ones, then prints one line per end-to-end metric
# of BENCHMARK.json:
#   - each side's median and quartiles [q1 q3] (linear interpolation);
#   - the change's median against the parent's, in %;
#   - the pairs the change wins (better in its metric's direction);
#   - "9/10": whether it wins at least 9 of every 10 pairs;
#   - "gap>IQR": whether its median is better than the parent's by more
#     than the parent's interquartile range;
#   - the bound: "within" or "WORSE" when the change's median is worse by
#     more than the metric's bound, "unresolved" when the parent's own
#     IQR exceeds the bound, unless every run of the change reads better
#     than every run of the parent.
# The sim metrics (the four bench/sim_identity.sh compares) and the
# failed count must be equal on every run of both sides: their lines say
# "same on every run" or "DIFFER".  Exit 1 when one differs or a metric
# is worse than its bound, else 0.
set -euo pipefail
if [ $# -ne 6 ]; then
  echo "usage: bash bench/pairs.sh PARENT_EXE CHANGE_EXE WORKLOAD SEED PAIRS SECONDS" >&2
  exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 pairs=$5 seconds=$6
root=$(cd "$(dirname "$0")/.." && pwd)
sim="sim_ns_per_op sim_tail_ns pm_words_per_key recover_sim_ms"
# "name better bound" for each end-to-end metric (only they carry a bound)
spec=$(sed -n 's/.*{"name": "\([^"]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound": \([0-9.]*\)}.*/\1 \2 \3/p' \
  "$root/BENCHMARK.json")
data=$(mktemp)
trap 'rm -f "$data"' EXIT

# One run of [exe] as [side] in pair [i]: "i side metric value" rows.
run() {
  local i=$1 side=$2 exe=$3 out m
  out=$("$exe" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
  echo "$i $side failed $(sed -n 's/.*"failed": \([0-9]*\),.*/\1/p' <<<"$out")" >>"$data"
  for m in $(cut -d ' ' -f 1 <<<"$spec"); do
    echo "$i $side $m $(sed -n "s/.*\"$m\": {\"value\": \\([^,}]*\\).*/\\1/p" <<<"$out")" >>"$data"
  done
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run "$i" parent "$parent"
    run "$i" change "$change"
  else
    run "$i" change "$change"
    run "$i" parent "$parent"
  fi
done

echo "$workload seed $seed: $pairs pairs of ${seconds} s, parent first in odd pairs"
awk -v spec="$spec" -v sim="failed $sim" -v pairs="$pairs" '
  function sort(a, n,   i, j, x) {
    for (i = 2; i <= n; i++) {
      x = a[i]
      for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
      a[j + 1] = x
    }
  }
  # quantile [q] of the sorted a[1..n], interpolating linearly
  function quant(a, n, q,   h, k) {
    h = 1 + (n - 1) * q
    k = int(h)
    return k >= n ? a[n] : a[k] + (h - k) * (a[k + 1] - a[k])
  }
  { v[$2, $3, $1] = $4; raw[$2, $3, $1] = $4 "" }
  END {
    bad = 0
    ns = split(sim, sims, " ")
    for (s = 1; s <= ns; s++) {
      m = sims[s]; same = 1
      for (i = 1; i <= pairs; i++)
        if (raw["parent", m, i] != raw["parent", m, 1] || raw["change", m, i] != raw["parent", m, 1]) same = 0
      printf "%-16s %s %s\n", m, raw["parent", m, 1], same ? "same on every run" : "DIFFER"
      if (!same) bad = 1
    }
    nm = split(spec, f, "\n")
    for (k = 1; k <= nm; k++) {
      split(f[k], g, " "); m = g[1]; lower = g[2] == "lower"; bound = g[3] + 0
      if (index(" " sim " ", " " m " ")) continue
      wins = 0
      for (i = 1; i <= pairs; i++) {
        p[i] = v["parent", m, i] + 0; c[i] = v["change", m, i] + 0
        if (lower ? c[i] < p[i] : c[i] > p[i]) wins++
      }
      sort(p, pairs); sort(c, pairs)
      mp = quant(p, pairs, 0.5); mc = quant(c, pairs, 0.5)
      iqr = quant(p, pairs, 0.75) - quant(p, pairs, 0.25)
      gain = lower ? mp - mc : mc - mp
      worse = mp != 0 ? -gain / mp : 0
      apart = lower ? c[pairs] < p[1] : c[1] > p[pairs]
      if (mp != 0 && iqr / mp > bound && !apart) verdict = "unresolved"
      else if (worse > bound) { verdict = "WORSE"; bad = 1 }
      else verdict = "within"
      printf "%-16s parent %.4g [%.4g %.4g]  change %.4g [%.4g %.4g]  %+.1f%%  wins %d/%d  9/10 %s  gap>IQR %s  bound %g%% %s\n",
        m, mp, quant(p, pairs, 0.25), quant(p, pairs, 0.75),
        mc, quant(c, pairs, 0.25), quant(c, pairs, 0.75),
        (mp != 0 ? 100 * (mc - mp) / mp : 0), wins, pairs,
        (wins * 10 >= 9 * pairs ? "yes" : "no"), (gain > iqr ? "yes" : "no"),
        100 * bound, verdict
    }
    exit bad
  }' "$data"
