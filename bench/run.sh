#!/usr/bin/env bash
# Builds the benchmark and runs it. From the repository root:
#
#   bench/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--traced] [--smoke]
#
# With --workload it measures that workload and prints every metric by
# name, the result object last. Without, it does so for each workload in
# turn, one process per workload. The exit code is non-zero, and no
# result is printed, if the build or a correctness check fails.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-bench/target}"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml --target-dir "$target" >&2
bin="$target/release/hatbench"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
for workload in rt-mixed-mem rt-mixed-durable rt-read-scan-mem sim-mixed-wan; do
    "$bin" --workload "$workload" "$@"
done
