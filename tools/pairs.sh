#!/usr/bin/env bash
# Alternate end-to-end benchmark runs of a parent tree and this tree, one
# pair per seed, and compare them on every end-to-end metric.
#
#   tools/pairs.sh [--metric NAME] PARENT_TREE WORKLOAD SEED...
#
# For each seed, runs
#   benchmark/run.sh --workload WORKLOAD --seed SEED --seconds 20 --trace 0
# in PARENT_TREE and in this tree, alternating which side goes first, and
# keeps each run's result line. Then prints, per pair, both values of the
# end-to-end metric NAME (default host_ns_per_op) and whether the five exact metrics and the failed-op count are
# identical, with each exact metric that differs on a line of its own as
# parent -> this. Last comes one line per end-to-end metric of this
# tree's BENCHMARK.json, which gives the names, the better directions and
# the bounds: the pairs this tree won and tied, both medians and their
# change, the parent's interquartile distance, whether the medians are
# further apart than that distance, and WORSE where this tree's median is
# worse than the parent's by more than the metric's bound.
# A claimed gain needs 9 wins in 10 and a median gap wider than that
# distance (benchmark/README.md).
#
# Each tree builds into its own target/benchmark. `benchmark/run.sh`
# rewrites the stale benchmark/Cargo.lock when it builds, so each run is
# followed by `git checkout benchmark/Cargo.lock` in its tree. Needs python3.
set -euo pipefail

metric=host_ns_per_op
if [ "${1:-}" = --metric ]; then
    metric=${2:?--metric needs a name}
    shift 2
fi
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

python3 - "$out" "$this/BENCHMARK.json" "$workload" "$metric" "$@" <<'EOF'
import json, statistics, sys

out, spec, workload, shown = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4]
seeds = sys.argv[5:]
EXACT = ["virt_ops_per_s", "virt_lat_p50_vns", "virt_lat_p99_vns",
         "dev_bytes_per_user_byte", "copy_bytes_per_user_byte"]
with open(spec) as f:
    metrics = json.load(f)["end_to_end"]
if shown not in [m["name"] for m in metrics]:
    sys.exit(f"--metric {shown}: not an end-to-end metric of {spec}")

def load(side, seed):
    with open(f"{out}/{side}.{seed}.json") as f:
        r = json.load(f)
    m = {k: v["value"] for k, v in r["metrics"].items()}
    return m, r["failed"]

pairs = []
print(f"{workload}: pair  seed  parent  this  delta  exact+failed  ({shown})")
for i, seed in enumerate(seeds, 1):
    (pm, pf), (tm, tf) = load("parent", seed), load("this", seed)
    pairs.append((pm, tm))
    p, t = pm[shown], tm[shown]
    moved = [k for k in EXACT if pm[k] != tm[k]]
    ident = "identical" if not moved and pf == tf else "DIFFERENT"
    delta = (t - p) / p if p else 0.0
    print(f"{workload}: {i:4}  {seed:>4}  {p:.6g}  {t:.6g}  {delta:+6.1%}"
          f"  {ident} (failed {pf}/{tf})")
    for k in moved:
        print(f"{workload}:        {k} {pm[k]:.6g} -> {tm[k]:.6g}")

print(f"{workload}: metric                    better  wins  ties  parent_median"
      f"  this_median  change  parent_IQR  gap>IQR  bound")
for m in metrics:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    ps = [p[name] for p, _ in pairs]
    ts = [t[name] for _, t in pairs]
    wins = sum(t < p if lower else t > p for p, t in zip(ps, ts))
    ties = sum(t == p for p, t in zip(ps, ts))
    pmed, tmed = statistics.median(ps), statistics.median(ts)
    iqr = 0.0
    if len(ps) > 1:
        q = statistics.quantiles(ps, n=4)
        iqr = q[2] - q[0]
    change = (tmed - pmed) / pmed if pmed else 0.0
    verdict = "WORSE" if (change if lower else -change) > bound else "ok"
    gap = "yes" if abs(tmed - pmed) > iqr else "no"
    print(f"{workload}: {name:<25} {m['better']:<6}  {wins:4}  {ties:4}  {pmed:13.6g}"
          f"  {tmed:11.6g}  {change:+6.1%}  {iqr:10.4g}  {gap:>7}  {bound:.0%} {verdict}")
EOF
