//! Crash-recovery fuzz campaign, emitting `BENCH_crash_fuzz.json` (the
//! full run; `--smoke` writes `target/bench/BENCH_crash_fuzz.json` and
//! leaves the committed artifact alone) and a failure-reproduction seed
//! file under `results/`.
//!
//! Runs the `labstor_workloads::crash` campaign: seeded fio-like,
//! filebench-like and namespace mixes over LabFS plus a LabKVS mix, each
//! killed at a randomized virtual time, restarted over the same media,
//! repaired, and checked for prefix consistency against the acknowledged
//! history (DESIGN.md §12). Exit 1 on any violation, or if no cut landed
//! inside a journal frame's write (`mid_frame_tears` 0).
//!
//! Usage: `crash_fuzz [--smoke]` — `--smoke` runs 52 crash points per
//! mix (260 total, bounded virtual time) for CI; the full run does 150
//! per mix. Every violating trial goes to `results/crash_fuzz_failures.json`;
//! `crash::run_trial(workload, seed, flows, crash_permille)` replays it.

use std::process::ExitCode;

use labstor_bench::Report;
use labstor_mods::RepairReport;
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
                "crash_permille": t.crash_permille,
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
        let trials: Vec<_> = campaign.trials.iter().filter(|t| t.workload == w).collect();
        let sum = |f: fn(&RepairReport) -> u64| trials.iter().map(|t| f(&t.repair)).sum::<u64>();
        report.row([
            ("workload", w.label().into()),
            ("trials", trials.len().into()),
            ("txns_replayed", sum(|r| r.txns_replayed).into()),
            ("txns_discarded", sum(|r| r.txns_discarded).into()),
            (
                "mid_frame_tears",
                sum(|r| u64::from(r.mid_frame_tears > 0)).into(),
            ),
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
