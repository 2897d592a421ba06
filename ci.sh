#!/usr/bin/env bash
# CI gate: formatting, clippy (workspace lint table, debug and release),
# rustdoc with warnings denied, a type-check of the frozen benchmark/ crate against
# this tree's API, labcheck static analysis + the six-model checking gate,
# every workspace test, the same tests under AddressSanitizer (nightly),
# then the figure-identity gate. Each step must
# pass. The smoke benches write target/bench/BENCH_*.json and the
# telemetry example writes its trace beside them; the committed
# BENCH_*.json and results/ are full runs and samples and are not touched
# here: the last step fails the run if it left the working tree any
# dirtier than it found it (benchmark/Cargo.lock excepted: the frozen
# crate's lock file is stale and cargo rewrites it).
set -euo pipefail
cd "$(dirname "$0")"
tree_before=$(git status --porcelain)

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy --release -D warnings (release builds compile the lock witness out)"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== cargo doc -D warnings (no broken intra-doc links, no public doc linking a private item)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== benchmark/ still compiles against this tree (an API break fails here, not at the last step)"
cargo check --offline --manifest-path benchmark/Cargo.toml --target-dir "${CARGO_TARGET_DIR:-target/benchmark}"

echo "== labcheck (lints incl. lock discipline + interleaving model checks)"
cargo run -q -p labstor-labcheck -- --report lockcheck-report.json
test -s lockcheck-report.json

echo "== cargo test --workspace"
cargo test --workspace -q

echo "== cargo +nightly test --workspace under AddressSanitizer (use after release, overflow, leaks in the unsafe code)"
# Its own target dir: instrumented artifacts never mix with the stable
# ones. An explicit --target keeps build scripts and proc macros
# uninstrumented; RUSTDOCFLAGS carries the flag so doctests link.
RUSTFLAGS="-Zsanitizer=address" RUSTDOCFLAGS="-Zsanitizer=address" \
    cargo +nightly test --workspace -q --target x86_64-unknown-linux-gnu \
    --target-dir "${CARGO_TARGET_DIR:-target}/asan"

echo "== figure identity (the deterministic harnesses must reproduce results/*.txt byte for byte)"
# Virtual time is a pure function of the code: a refactor that moves one
# ctx.advance shows up here. The other six harnesses run real threads
# and differ between two runs on a small guest, so they stay out.
mkdir -p target/bench/figures
for fig in fig4a_anatomy table1_upgrade fig6_storage_api fig9b_labios; do
    cargo run -q --release -p labstor-bench --bin "$fig" > "target/bench/figures/$fig.txt"
    cmp "target/bench/figures/$fig.txt" "results/$fig.txt"
done

echo "== sample Chrome trace (and: per-LabMod counters == span anatomy, to the ns)"
cargo run -q --release --example telemetry -- target/bench/telemetry_trace.json
test -s target/bench/telemetry_trace.json

echo "== crash-recovery, split-stack, custom-stack, multi-tenant, quickstart, pushdown and live-upgrade examples (their asserts run only here)"
cargo run -q --release --example crash_recovery
cargo run -q --release --example decentralized_split
cargo run -q --release --example custom_stack
cargo run -q --release --example multi_tenant
cargo run -q --release --example quickstart
cargo run -q --release --example pushdown
cargo run -q --release --example live_upgrade

echo "== gate bench smokes (each writes target/bench/BENCH_<name>.json and exits 1 if a check fails)"
for bench in bench_ipc bench_datapath bench_tenants bench_reactor bench_pushdown crash_fuzz; do
    cargo run -q --release -p labstor-bench --bin "$bench" -- --smoke
    test -s "target/bench/BENCH_${bench#bench_}.json"
done
test -s results/crash_fuzz_failures.json

echo "== labstor-benchmark smoke (every workload end to end; a wrong byte, a failed op or cross-trial drift fails)"
benchmark/run.sh --smoke > /dev/null
test -s "${CARGO_TARGET_DIR:-target/benchmark}/results/smoke-seed1.json"

echo "== exact-metric identity (the smoke run's 25 virtual-time and byte metrics must reproduce results/benchmark_exact.txt)"
tools/exact.sh > target/bench/benchmark_exact.txt
cmp target/bench/benchmark_exact.txt results/benchmark_exact.txt

echo "== clean tree (a CI run may not touch a committed file or leave an untracked one)"
tree_new=$(comm -13 <(sort <<<"$tree_before") <(git status --porcelain | sort) | grep -vx ' M benchmark/Cargo.lock' || true)
if [ -n "$tree_new" ]; then
    echo "ci.sh dirtied the tree:"
    echo "$tree_new"
    exit 1
fi

echo "ci: all gates passed"
