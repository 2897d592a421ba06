//! Crash-recovery fuzz campaign, emitting `BENCH_crash_fuzz.json` (the
//! full run; `--smoke` writes `target/bench/BENCH_crash_fuzz.json` and
//! leaves the committed artifact alone) and a failure-reproduction seed
//! file under `results/`.
//!
//! Runs the `labstor_workloads::crash` campaign: seeded fio-like and
//! filebench-like mixes over LabFS plus a LabKVS mix, each killed at a
//! randomized virtual time, restarted over the same media, repaired, and
//! checked for prefix consistency against the acknowledged history
//! (DESIGN.md §12). Exit 1 on any violation, or if no cut landed inside
//! a journal frame's write (`mid_frame_tears` 0).
//!
//! Usage: `crash_fuzz [--smoke]` — `--smoke` runs 52 crash points per
//! mix (208 total, bounded virtual time) for CI; the full run does 150
//! per mix. Any violating trial's (workload, seed, crash_at) triple is
//! written to `results/crash_fuzz_failures.json`, which the CI workflow
//! uploads as an artifact so failures replay exactly.

use std::process::ExitCode;

use labstor_bench::Report;
use labstor_workloads::crash::{run_campaign, CampaignConfig, CrashWorkload};
use serde_json::Value;

fn main() -> ExitCode {
    let mut report = Report::from_args("crash_fuzz", "BENCH_crash_fuzz.json");
    let smoke = report.smoke();
    let cfg = CampaignConfig {
        trials_per_workload: if smoke { 52 } else { 150 },
        flows: if smoke { 4 } else { 8 },
        base_seed: 0x1AB5_702C,
    };
    let campaign = run_campaign(&cfg);
    let violations = campaign.violations();

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
    for t in &violations {
        eprintln!(
            "FAIL: {} seed={} crash_at={:?}: {}",
            t.workload.label(),
            t.seed,
            t.crash_at,
            t.violation.as_deref().unwrap_or("?")
        );
    }

    // Per-workload replay/discard totals.
    for w in CrashWorkload::all() {
        let (mut trials, mut replayed, mut discarded) = (0usize, 0u64, 0u64);
        for t in campaign.trials.iter().filter(|t| t.workload == w) {
            trials += 1;
            replayed += t.repair.txns_replayed;
            discarded += t.repair.txns_discarded;
        }
        report.row([
            ("workload", w.label().into()),
            ("trials", trials.into()),
            ("txns_replayed", replayed.into()),
            ("txns_discarded", discarded.into()),
        ]);
    }
    report.param("flows", cfg.flows);
    report.param("trials", campaign.trials.len());
    report.param("crash_points", campaign.crashes());
    // The version digit of the frame magic, "LBJ2".
    report.param(
        "journal_format",
        u64::from(labstor_mods::journal::FRAME_MAGIC as u8 - b'0'),
    );
    report.param("torn_tails_discarded", campaign.torn_tails());
    report.at_most("violations", violations.len() as f64, 0.0);
    // A campaign whose cuts never tear a multi-sector frame checks no
    // torn payload, and would pass with 0 violations.
    report.at_least("mid_frame_tears", campaign.mid_frame_tears() as f64, 1.0);
    report.finish()
}
