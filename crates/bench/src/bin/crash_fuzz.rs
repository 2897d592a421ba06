//! Crash-recovery fuzz campaign, emitting `BENCH_crash_fuzz.json` (the
//! full run; `--smoke` writes `target/bench/BENCH_crash_fuzz.json` and
//! leaves the committed artifact alone) and a failure-reproduction seed
//! file under `results/`.
//!
//! Runs the `labstor_workloads::crash` campaign: seeded fio-like and
//! filebench-like mixes over LabFS plus a LabKVS mix, each killed at a
//! randomized virtual time, restarted over the same media, repaired, and
//! checked for prefix consistency against the acknowledged history
//! (DESIGN.md §12). Exit 1 on any violation.
//!
//! Usage: `crash_fuzz [--smoke]` — `--smoke` runs 52 crash points per
//! mix (208 total, bounded virtual time) for CI; the full run does 150
//! per mix. Any violating trial's (workload, seed, crash_at) triple is
//! written to `results/crash_fuzz_failures.json`, which the CI workflow
//! uploads as an artifact so failures replay exactly.

use std::collections::HashMap;

use labstor_workloads::crash::{run_campaign, CampaignConfig};
use serde_json::Value;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = CampaignConfig {
        trials_per_workload: if smoke { 52 } else { 150 },
        flows: if smoke { 4 } else { 8 },
        base_seed: 0x1AB5_702C,
    };
    let report = run_campaign(&cfg);
    let violations = report.violations();

    // Failure-reproduction seeds: everything needed to replay a
    // violating trial exactly.
    let failures: Vec<Value> = violations
        .iter()
        .map(|t| {
            serde_json::json!({
                "workload": t.workload.label(),
                "seed": t.seed,
                "crash_at": t.crash_at.map(Value::from).unwrap_or(Value::Null),
                "flows": cfg.flows as u64,
                "violation": t.violation.clone().unwrap_or_default(),
            })
        })
        .collect();
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(
        "results/crash_fuzz_failures.json",
        format!("{}\n", Value::from(failures)),
    )
    .expect("write failure seeds");

    // Per-workload replay/discard totals.
    let mut agg: HashMap<&str, (u64, u64, u64)> = HashMap::new();
    for t in &report.trials {
        let e = agg.entry(t.workload.label()).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += t.repair.txns_replayed;
        e.2 += t.repair.txns_discarded;
    }
    let mut per_workload = serde_json::Map::new();
    for (label, (trials, replayed, discarded)) in agg {
        per_workload.insert(
            label.to_string(),
            serde_json::json!({
                "trials": trials,
                "txns_replayed": replayed,
                "txns_discarded": discarded,
            }),
        );
    }
    let out = serde_json::json!({
        "bench": "crash_fuzz",
        "smoke": smoke,
        "trials": report.trials.len() as u64,
        "crash_points": report.crashes() as u64,
        // The version digit of the frame magic, "LBJ2".
        "journal_format": u64::from(labstor_mods::journal::FRAME_MAGIC as u8 - b'0'),
        "torn_tails_discarded": report.torn_tails() as u64,
        "mid_frame_tears": report.mid_frame_tears() as u64,
        "violations": violations.len() as u64,
        "per_workload": Value::Object(per_workload),
    });
    let artifact = labstor_bench::artifact_path("BENCH_crash_fuzz.json", smoke);
    std::fs::write(artifact, format!("{out}\n")).expect("write the campaign artifact");

    println!(
        "crash_fuzz ({}): {}",
        if smoke { "smoke" } else { "full" },
        report.summary()
    );
    if !violations.is_empty() {
        for t in &violations {
            eprintln!(
                "FAIL: {} seed={} crash_at={:?}: {}",
                t.workload.label(),
                t.seed,
                t.crash_at,
                t.violation.as_deref().unwrap_or("?")
            );
        }
        eprintln!(
            "FAIL: crash fuzzer found prefix-consistency violations \
             (seeds in results/crash_fuzz_failures.json)"
        );
        std::process::exit(1);
    }
}
