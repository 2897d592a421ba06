//! Tier-1 crash-recovery fuzzing (DESIGN.md §12): seeded fio/filebench
//! mixes are killed at randomized virtual times, a fresh module instance
//! is booted over the same media, `state_repair` replays the journal, and
//! the recovered state must equal the model state after some prefix of
//! the acknowledged-operation history — never shorter than the last
//! acknowledged durability point (fsync / log flush).
//!
//! The heavyweight campaign (hundreds of crash points) runs in the
//! `crash_fuzz` bench binary during `./ci.sh`; this file is the
//! always-on gate plus the randomized repair-idempotence properties.

use proptest::prelude::*;

use labstor::workloads::crash::{
    check_repair_idempotence, run_campaign, run_trial, CampaignConfig, CrashWorkload,
};

#[test]
fn crash_campaign_gate_is_prefix_consistent() {
    let report = run_campaign(&CampaignConfig {
        trials_per_workload: 4,
        flows: 4,
        base_seed: 0xC0FFEE,
    });
    assert_eq!(report.trials.len(), 16);
    assert_eq!(report.crashes(), 16, "every trial must arm a crash point");
    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "prefix-consistency violations:\n{violations:#?}"
    );
    // The campaign is only exercising recovery if some crash points leave
    // torn work for repair to discard. A one-sector frame lands whole or
    // not at all, so that takes cuts inside the one write of a
    // multi-sector frame (fio, fileserver, the KVS mix): header on media,
    // payload torn.
    assert!(
        report.torn_tails() > 0 && report.mid_frame_tears() > 0,
        "no crash point left anything to discard: {}",
        report.summary()
    );
}

#[test]
fn repair_reports_are_recorded_by_the_trials() {
    // A mid-run crash on the fsync-heavy varmail mix replays at least one
    // committed transaction and records the result in the typed report.
    let mut replayed_something = false;
    for seed in 0..4u64 {
        let t = run_trial(CrashWorkload::Varmail, 900 + seed, 4, 800);
        assert!(t.violation.is_none(), "{:?}", t.violation);
        replayed_something |= t.repair.txns_replayed > 0;
    }
    assert!(replayed_something, "no trial replayed any transaction");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Replay idempotence: after any crash, repairing twice leaves the
    /// same state as repairing once, and a crash *during* repair followed
    /// by a clean repair converges to that state too — for both LabFS
    /// mixes and the LabKVS mix.
    #[test]
    fn repair_is_idempotent(
        seed in 0u64..10_000,
        permille in 100u32..900,
        which in 0usize..4,
    ) {
        let workload = CrashWorkload::all()[which];
        if let Err(e) = check_repair_idempotence(workload, seed, 3, permille) {
            return Err(TestCaseError::fail(format!(
                "{}: {e}", workload.label()
            )));
        }
    }

    /// Prefix consistency holds at arbitrary seeds and crash fractions,
    /// not just the campaign's fixed schedule.
    #[test]
    fn random_crash_points_recover_consistently(
        seed in 0u64..10_000,
        permille in 50u32..950,
        which in 0usize..4,
    ) {
        let workload = CrashWorkload::all()[which];
        let t = run_trial(workload, seed, 3, permille);
        prop_assert!(
            t.violation.is_none(),
            "{}: {:?}", workload.label(), t.violation
        );
        if let Some(k) = t.matched_prefix {
            prop_assert!(k >= t.durable_floor);
        }
    }
}
