#!/usr/bin/env bash
# Runs a series of untraced runs, one per seed, cycling through every
# workload for each seed (A B C D A B C D ...), and appends each run's
# record to OUT. Two such files are compared with
#   bash benchmark/run.sh --compare A.jsonl B.jsonl
#
#   bash benchmark/series.sh OUT FIRST_SEED COUNT [SECONDS]
set -euo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 OUT FIRST_SEED COUNT [SECONDS]" >&2
  exit 2
fi
out=$1 first=$2 count=$3 seconds=${4:-20}
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

for ((seed = first; seed < first + count; seed++)); do
  for w in analyze-cold analyze-cached optimize-cold session-churn; do
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" | tail -n 1
  done
done
