#!/usr/bin/env bash
# Alternate end-to-end benchmark runs of a parent tree and this tree, one
# pair per seed, and compare them.
#
#   tools/pairs.sh PARENT_TREE WORKLOAD SEED...
#
# For each seed, runs
#   benchmark/run.sh --workload WORKLOAD --seed SEED --seconds 20 --trace 0
# in PARENT_TREE and in this tree, alternating which side goes first, and
# keeps each run's result line. Then
# prints, per pair, both host_ns_per_op values and whether the five exact
# metrics and the failed-op count are identical; and, over all pairs, how
# many this tree won, both medians and the parent's interquartile distance.
# A claimed gain needs 9 wins in 10 and a median gap wider than that
# distance (benchmark/README.md).
#
# Each tree builds into its own target/benchmark. `benchmark/run.sh`
# rewrites the stale benchmark/Cargo.lock when it builds, so each run is
# followed by `git checkout benchmark/Cargo.lock` in its tree. Needs python3.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '4,6p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
this=$(cd "$(dirname "$0")/.." && pwd)
workload=$2
shift 2

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run TREE SIDE SEED: one 20 s run, its result line saved as SIDE.SEED.json.
run() {
    (cd "$1" && benchmark/run.sh --workload "$workload" --seed "$3" \
        --seconds 20 --trace 0 2>"$out/$2.$3.log") | tail -n 1 >"$out/$2.$3.json"
    git -C "$1" checkout --quiet benchmark/Cargo.lock
}

# Odd pairs run the parent first, even pairs this tree first.
i=0
for seed in "$@"; do
    i=$((i + 1))
    if [ $((i % 2)) -eq 1 ]; then
        run "$parent" parent "$seed"
        run "$this" this "$seed"
    else
        run "$this" this "$seed"
        run "$parent" parent "$seed"
    fi
done

python3 - "$out" "$workload" "$@" <<'EOF'
import json, statistics, sys

out, workload, seeds = sys.argv[1], sys.argv[2], sys.argv[3:]
EXACT = ["virt_ops_per_s", "virt_lat_p50_vns", "virt_lat_p99_vns",
         "dev_bytes_per_user_byte", "copy_bytes_per_user_byte"]

def load(side, seed):
    with open(f"{out}/{side}.{seed}.json") as f:
        r = json.load(f)
    m = {k: v["value"] for k, v in r["metrics"].items()}
    return m, r["failed"]

parent, this, wins = [], [], 0
print(f"{workload}: pair  seed  parent_ns  this_ns  delta  exact+failed")
for i, seed in enumerate(seeds, 1):
    (pm, pf), (tm, tf) = load("parent", seed), load("this", seed)
    p, t = pm["host_ns_per_op"], tm["host_ns_per_op"]
    parent.append(p)
    this.append(t)
    wins += t < p
    same = all(pm[k] == tm[k] for k in EXACT) and pf == tf
    ident = "identical" if same else "DIFFERENT"
    print(f"{workload}: {i:4}  {seed:>4}  {p:9.0f}  {t:7.0f}  {(t - p) / p:+6.1%}"
          f"  {ident} (failed {pf}/{tf})")

pmed, tmed = statistics.median(parent), statistics.median(this)
iqr = 0.0
if len(parent) > 1:
    q = statistics.quantiles(parent, n=4)
    iqr = q[2] - q[0]
print(f"{workload}: this tree faster in {wins}/{len(seeds)} pairs; median "
      f"{pmed:.0f} -> {tmed:.0f} ns ({(tmed - pmed) / pmed:+.1%}); "
      f"parent IQR {iqr:.0f} ns")
EOF
