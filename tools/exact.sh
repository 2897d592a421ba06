#!/usr/bin/env bash
# Print the benchmark's exact metrics: the five end-to-end values that are
# a pure function of the code (virtual throughput, virtual p50 and p99,
# device bytes and copied bytes per user byte), one line per workload and
# metric, workloads in name order.
#
#   tools/exact.sh [RESULT.json]
#
# RESULT.json defaults to the smoke run's result file,
# ${CARGO_TARGET_DIR:-target/benchmark}/results/smoke-seed1.json, which
# `benchmark/run.sh --smoke` writes. ci.sh compares the output with the
# committed results/benchmark_exact.txt; a change that moves a value
# re-commits that file and says why.
set -euo pipefail
cd "$(dirname "$0")/.."

result="${1:-${CARGO_TARGET_DIR:-target/benchmark}/results/smoke-seed1.json}"
jq -r '
    .workloads | to_entries | sort_by(.key)[] | .key as $w | .value.end_to_end as $e
    | ("virt_ops_per_s", "virt_lat_p50_vns", "virt_lat_p99_vns",
       "dev_bytes_per_user_byte", "copy_bytes_per_user_byte")
    | "\($w) \(.) \($e[.].value)"
' "$result"
