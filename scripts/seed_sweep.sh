#!/usr/bin/env bash
# Runs one benchmark workload at consecutive seeds and stops at the first
# failure (a failed correctness pass, or any other non-zero exit), printing
# the command that replays it.
#
#   bash scripts/seed_sweep.sh WORKLOAD FIRST COUNT [extra bench/run.sh args]
#
# e.g. `bash scripts/seed_sweep.sh sim-mixed-wan 6000 10` runs seeds
# 6000..6009 at the default episode length.
set -euo pipefail

if [ $# -lt 3 ]; then
    echo "usage: $0 WORKLOAD FIRST COUNT [extra bench/run.sh args]" >&2
    exit 2
fi
workload=$1
first=$2
count=$3
shift 3

cd "$(dirname "$0")/.."
for ((seed = first; seed < first + count; seed++)); do
    echo "== $workload seed $seed"
    if ! bash bench/run.sh --workload "$workload" --seed "$seed" "$@"; then
        echo "seed sweep: $workload failed at seed $seed; replay with:" >&2
        echo "  bash bench/run.sh --workload $workload --seed $seed $*" >&2
        exit 1
    fi
done
echo "seed sweep: $workload seeds $first..$((first + count - 1)) passed"
