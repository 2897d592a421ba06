#!/usr/bin/env bash
# Build the benchmark offline, pin it to one CPU and run it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   one workload, one part (what BENCHMARK.json's command runs)
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--out FILE]    every workload, end-to-end and per-layer, table + result file
#   benchmark/run.sh --compare A.json B.json                            is B worse than A, by BENCHMARK.json's bounds?
#
# README.md explains each step of the discipline below.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --quiet --release --offline \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

# One malloc arena: with per-thread arenas each trial's worker thread draws a
# different recycled arena, and peak RSS and set-up time cycle with period 3.
export MALLOC_ARENA_MAX=1

# One CPU, the first this process is allowed: across two vCPUs the
# client-worker futex wake is bimodal (12 or 48 us).
pin=()
if command -v taskset >/dev/null; then
    cpu=$(awk '/^Cpus_allowed_list/ { split($2, a, /[-,]/); print a[1] }' /proc/self/status)
    pin=(taskset -c "$cpu")
fi
exec "${pin[@]}" "$target/release/labstor-benchmark" --out-dir "$target/results" "$@"
