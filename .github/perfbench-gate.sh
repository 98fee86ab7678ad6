#!/usr/bin/env bash
# CI regression gate on the repository benchmark. From the repository root:
#
#   bash .github/perfbench-gate.sh [BASELINE]
#
# Runs perfbench's batch and scan-fresh workloads for 5 s each at seed 1 and
# fails when either result is not "correct": true, when batch apps_per_sec
# falls to half of BASELINE's or below, or when allocs_per_op on either
# workload doubles. BASELINE (default .github/perfbench-baseline.json) holds
# one result line per workload, recorded with the same flags.
set -euo pipefail

baseline=${1:-.github/perfbench-baseline.json}
status=0
for w in batch scan-fresh; do
  line=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 5 --trace 0 | tail -n 1)
  echo "$w: $line"
  if ! jq -r -n --arg w "$w" --argjson cur "$line" --slurpfile base "$baseline" '
      $base[0][$w] as $b
      | [ (if $cur.correct != true then "not correct: \($cur.failed) of \($cur.attempted) operations failed" else empty end),
          (if $w == "batch" and $cur.metrics.apps_per_sec.value <= $b.metrics.apps_per_sec.value / 2
             then "apps_per_sec \($cur.metrics.apps_per_sec.value) <= half of baseline \($b.metrics.apps_per_sec.value)" else empty end),
          (if $cur.metrics.allocs_per_op.value >= 2 * $b.metrics.allocs_per_op.value
             then "allocs_per_op \($cur.metrics.allocs_per_op.value) >= twice baseline \($b.metrics.allocs_per_op.value)" else empty end) ]
      | if length > 0 then map("FAIL \($w): " + . + "\n") | add | halt_error(1) else "ok \($w)" end'; then
    status=1
  fi
done
exit "$status"
