//! The model-checking gate: one table of rows — family, parameters, a
//! runner, the expected outcome — that the `labcheck` binary, the tier-1
//! test (`tests/labcheck_gate.rs`) and this crate's own
//! `tests/workspace.rs` all iterate.
//!
//! Every row fails closed. A correct protocol must pass *and* explore
//! exactly the pinned state space, so a model edit that silently prunes
//! states no longer prints "ok". A planted bug must be caught *as the
//! violation it plants*, with the pinned counterexample length — a
//! checker that stops failing on known bugs, or flags the wrong thing,
//! is itself broken. The pinned values are reproducible because
//! `explore` is breadth-first and every model fixes its scheduler
//! order.

use std::fmt::Debug;

use crate::explore::{explore, Failure, Report};
use crate::mc::{McConfig, Variant};
use crate::mc_doorbell::{DoorbellConfig, DoorbellVariant};
use crate::mc_fuel::{self, FuelConfig, FuelInsn, FuelVariant};
use crate::mc_journal::{JournalConfig, JournalVariant};
use crate::mc_lock::{LockModel, LockVariant};
use crate::mc_rc::{RcConfig, RcVariant};

/// What a row's exploration must produce.
enum Expect {
    /// A correct protocol: no violation, and exactly this state space.
    Pass(Report),
    /// A planted bug: this violation (its `Debug` rendering), reached by
    /// a counterexample of this many steps.
    Caught {
        /// `Debug` rendering of the violation the bug plants.
        violation: &'static str,
        /// Length of the shortest schedule that exposes it.
        trace_len: usize,
    },
}

type Erased = Box<dyn Debug>;

/// One exploration the gate runs.
pub struct GateRow {
    /// Which model: `mc` (the SPSC ring), `rc`, `lock`, `doorbell`,
    /// `journal` or `fuel`.
    pub family: &'static str,
    /// The configuration, as printed.
    params: String,
    /// The pinned outcome.
    expect: Expect,
    run: Box<dyn Fn() -> Result<Report, Failure<Erased>>>,
}

impl GateRow {
    fn new<V: Debug + 'static>(
        family: &'static str,
        params: String,
        expect: Expect,
        run: impl Fn() -> Result<Report, Failure<V>> + 'static,
    ) -> GateRow {
        let run = move || {
            run().map_err(|f| Failure {
                violation: Box::new(f.violation) as Erased,
                trace: f.trace,
            })
        };
        GateRow {
            family,
            params,
            expect,
            run: Box::new(run),
        }
    }

    /// Run the row against its pinned outcome. `Ok` is the line to
    /// report; `Err` says how the outcome differs (with the
    /// counterexample, when there is one).
    pub fn check(&self) -> Result<String, String> {
        let GateRow { family, params, .. } = self;
        match ((self.run)(), &self.expect) {
            (Ok(got), Expect::Pass(want)) if got == *want => {
                // The journal verifies a recovery at every state (its
                // per-state invariant), so that is the count it reports.
                let (n, noun) = match *family {
                    "journal" => (got.states, "recoveries"),
                    _ => (got.terminals, "terminals"),
                };
                Ok(format!(
                    "{family} ok  {params} ({} states, {} transitions, {n} {noun})",
                    got.states, got.transitions
                ))
            }
            (Ok(got), Expect::Pass(want)) => Err(format!(
                "{family} DRIFTED on {params}: explored {got:?}, the gate pins {want:?}"
            )),
            (Err(failure), Expect::Pass(_)) => {
                Err(format!("{family} FAILED on {params}\n{failure}"))
            }
            (Ok(_), Expect::Caught { .. }) => Err(format!("{family} MISSED planted bug {params}")),
            (
                Err(failure),
                Expect::Caught {
                    violation,
                    trace_len,
                },
            ) => {
                if format!("{:?}", failure.violation) == *violation
                    && failure.trace.len() == *trace_len
                {
                    Ok(format!(
                        "{family} caught  {params} => {violation} ({trace_len} steps)"
                    ))
                } else {
                    Err(format!(
                        "{family} MISCAUGHT planted bug {params}: the gate pins {violation} \
                         after {trace_len} steps\n{failure}"
                    ))
                }
            }
        }
    }
}

fn pass(states: usize, transitions: usize, terminals: usize) -> Expect {
    Expect::Pass(Report {
        states,
        transitions,
        terminals,
    })
}

fn caught(violation: &'static str, trace_len: usize) -> Expect {
    Expect::Caught {
        violation,
        trace_len,
    }
}

/// `base`, followed by the variant on planted rows. (Correct rows print
/// as they always have, which for the ring means without `batch`.)
fn with_variant<V: Debug + PartialEq>(base: String, variant: V, correct: V) -> String {
    if variant == correct {
        base
    } else {
        format!("{base} {variant:?}")
    }
}

fn ring(cfg: McConfig, expect: Expect) -> GateRow {
    let base = format!(
        "cap={} ops={}/{} start={} stale={}",
        cfg.cap, cfg.pushes, cfg.pops, cfg.start, cfg.stale_reads
    );
    let params = with_variant(base, cfg.variant, Variant::Correct);
    GateRow::new("mc", params, expect, move || explore(&cfg))
}

fn rc(clones: u8, variant: RcVariant, expect: Expect) -> GateRow {
    let params = with_variant(format!("clones={clones}"), variant, RcVariant::Correct);
    let cfg = RcConfig { clones, variant };
    GateRow::new("rc", params, expect, move || explore(&cfg))
}

fn lock(variant: LockVariant, expect: Expect) -> GateRow {
    let model = LockModel::new(variant);
    GateRow::new("lock", format!("{variant:?}"), expect, move || {
        explore(&model)
    })
}

fn doorbell(bursts: u8, batch: u8, variant: DoorbellVariant, expect: Expect) -> GateRow {
    let base = format!("bursts={bursts} batch={batch}");
    let params = with_variant(base, variant, DoorbellVariant::Correct);
    let cfg = DoorbellConfig {
        bursts,
        batch,
        variant,
    };
    GateRow::new("doorbell", params, expect, move || explore(&cfg))
}

fn journal(txns: u8, tear: bool, variant: JournalVariant, expect: Expect) -> GateRow {
    let base = format!("txns={txns} tear={tear}");
    let params = with_variant(base, variant, JournalVariant::Correct);
    let cfg = JournalConfig {
        txns,
        allow_silent_tear: tear,
        variant,
    };
    GateRow::new("journal", params, expect, move || explore(&cfg))
}

fn fuel(program: Vec<FuelInsn>, fuel: u8, variant: FuelVariant, expect: Expect) -> GateRow {
    let cfg = FuelConfig {
        program,
        fuel,
        variant,
    };
    let base = format!(
        "insns={} fuel={} rejected={}",
        cfg.program.len(),
        cfg.fuel,
        cfg.rejected()
    );
    let params = with_variant(base, variant, FuelVariant::Correct);
    GateRow::new("fuel", params, expect, move || mc_fuel::run(&cfg))
}

/// The gate: 24 correct rows and 20 planted bugs over the six models.
pub fn gate() -> Vec<GateRow> {
    use FuelInsn::{Br, Fall, Halt};
    let exact = |cfg: McConfig, variant| McConfig {
        stale_reads: false,
        variant,
        ..cfg
    };
    vec![
        // SPSC ring: depth 6 per side at cap 2 and 4, a wraparound run,
        // a partial-drain run (Drop contract), depth 7, and the batched
        // protocol (`producer_push_iter`/`consumer_pop_batch`: one store per
        // burst) at batch 2 and 3, including across the counter wrap.
        ring(McConfig::correct(2, 6), pass(787, 1720, 2)),
        ring(McConfig::correct(4, 6), pass(2171, 5008, 4)),
        ring(
            McConfig {
                start: 253,
                ..McConfig::correct(4, 7)
            },
            pass(2921, 6864, 4),
        ),
        ring(
            McConfig {
                pops: 4,
                start: 254,
                ..McConfig::correct(4, 6)
            },
            pass(1864, 4304, 8),
        ),
        ring(McConfig::correct(2, 7), pass(960, 2108, 2)),
        ring(McConfig::correct_batched(2, 6, 2), pass(1255, 2740, 5)),
        ring(McConfig::correct_batched(4, 6, 3), pass(3592, 7741, 23)),
        ring(
            McConfig {
                start: 253,
                ..McConfig::correct_batched(4, 7, 3)
            },
            pass(6195, 14105, 23),
        ),
        ring(
            McConfig {
                pops: 4,
                start: 254,
                ..McConfig::correct_batched(4, 6, 2)
            },
            pass(1787, 3927, 27),
        ),
        ring(
            exact(McConfig::correct(2, 4), Variant::FullCheckOffByOne),
            caught("Overwrite { slot: 0, lost: 0 }", 14),
        ),
        ring(
            exact(McConfig::correct(2, 3), Variant::AdvanceHeadBeforeRead),
            caught("Overwrite { slot: 0, lost: 0 }", 18),
        ),
        // One push: the element is written but never published, so the
        // consumer spins on empty forever. (With more pushes the stale
        // tail makes the producer clobber slot 0 first, which the
        // overwrite check reports instead.)
        ring(
            exact(McConfig::correct(2, 1), Variant::MissingPublish),
            caught("NoCompletion", 0),
        ),
        // The doorbell rings for the whole burst after only the first
        // slot write: a consumer claiming the burst reads an unwritten
        // slot.
        ring(
            exact(
                McConfig::correct_batched(4, 3, 3),
                Variant::BatchPublishEarly,
            ),
            caught("ReadUninit { slot: 1 }", 9),
        ),
        // Refcount release: the shipped fetch_sub protocol at increasing
        // clone depth (0 = the bare two-thread drop race), then the two
        // wrong ways to split the free decision across atomic steps.
        rc(0, RcVariant::Correct, pass(4, 4, 1)),
        rc(1, RcVariant::Correct, pass(16, 24, 1)),
        rc(3, RcVariant::Correct, pass(64, 112, 1)),
        rc(0, RcVariant::LoadThenSub, caught("Leak", 4)),
        rc(
            0,
            RcVariant::SubThenLoad,
            caught("DoubleFree { thread: 1 }", 4),
        ),
        // Clones only widen the race window.
        rc(
            2,
            RcVariant::SubThenLoad,
            caught("DoubleFree { thread: 1 }", 16),
        ),
        // Lock discipline: the ascending ShMem chunk sweep passes every
        // interleaving; re-acquiring a held lock and the pre-PR 5
        // descending sweep are each caught by the witness rule they break.
        lock(LockVariant::CorrectChunks, pass(16, 16, 1)),
        lock(
            LockVariant::ReentrantShard,
            caught(
                "SelfDeadlock { thread: 0, lock: \"pagecache.shard#0\" }",
                2,
            ),
        ),
        lock(
            LockVariant::DescendingChunks,
            caught(
                "OrderViolation { thread: 1, held: \"shmem.chunk#1\", acquiring: \"shmem.chunk#0\" }",
                2,
            ),
        ),
        // Doorbell park/wake (PR 9) with its pre-park phase of 0, 1 or 2
        // unregistered epoch re-reads: the capture/recheck protocol is
        // lost-wakeup free at single pushes and one-ring-per-burst batch
        // shapes; parking without the under-mutex re-check, ringing only
        // on a stale empty->non-empty belief and letting the phase's last
        // read stand in for the re-check all strand envelopes.
        doorbell(3, 1, DoorbellVariant::Correct, pass(322, 595, 3)),
        doorbell(2, 2, DoorbellVariant::Correct, pass(287, 520, 2)),
        doorbell(2, 3, DoorbellVariant::Correct, pass(456, 832, 2)),
        doorbell(
            2,
            1,
            DoorbellVariant::ParkWithoutRecheck,
            caught("LostWakeup { queued: 2 }", 10),
        ),
        doorbell(
            3,
            2,
            DoorbellVariant::ParkWithoutRecheck,
            caught("LostWakeup { queued: 6 }", 16),
        ),
        doorbell(
            2,
            1,
            DoorbellVariant::EdgeOnlyRing,
            caught("LostWakeup { queued: 1 }", 13),
        ),
        doorbell(
            3,
            2,
            DoorbellVariant::EdgeOnlyRing,
            caught("LostWakeup { queued: 4 }", 21),
        ),
        doorbell(
            2,
            1,
            DoorbellVariant::PhaseReadAsRecheck,
            caught("LostWakeup { queued: 2 }", 11),
        ),
        // Journal commit protocol (one sealed frame write per
        // transaction): every crash point and device tear recovers to an
        // exactly-once, corruption-free prefix; acking before the write
        // returned, a replay loop without idempotence and a recovery
        // that skips the payload CRC do not — the last with or without
        // device faults, since nothing but that CRC commits a frame.
        journal(1, false, JournalVariant::Correct, pass(6, 7, 1)),
        journal(2, true, JournalVariant::Correct, pass(56, 65, 16)),
        journal(3, true, JournalVariant::Correct, pass(232, 273, 64)),
        journal(
            2,
            false,
            JournalVariant::AckBeforeWrite,
            caught("AckedLost { txn: 1 }", 2),
        ),
        journal(
            2,
            false,
            JournalVariant::ReplayTwice,
            caught("AppliedTwice { txn: 1 }", 3),
        ),
        journal(
            2,
            false,
            JournalVariant::TornCrcAccept,
            caught("CorruptionAccepted { txn: 1 }", 2),
        ),
        journal(
            2,
            true,
            JournalVariant::TornCrcAccept,
            caught("CorruptionAccepted { txn: 1 }", 2),
        ),
        // Pushdown fuel/termination (PR 10): straight-line code, the
        // count_where_u32_eq skeleton (load, branch, two exits), a
        // forward branch chain with a zero-offset branch, a budget that
        // runs out mid-flight, and a backward jump the verifier rejects
        // before execution — that *is* the safe outcome.
        fuel(
            vec![Fall, Fall, Fall, Halt],
            8,
            FuelVariant::Correct,
            pass(5, 4, 1),
        ),
        fuel(
            vec![Fall, Br(1), Halt, Fall, Halt],
            8,
            FuelVariant::Correct,
            pass(7, 6, 2),
        ),
        fuel(
            vec![Br(2), Fall, Fall, Br(0), Halt],
            16,
            FuelVariant::Correct,
            pass(9, 10, 2),
        ),
        fuel(
            vec![Fall, Fall, Fall, Fall, Halt],
            2,
            FuelVariant::Correct,
            pass(3, 2, 1),
        ),
        fuel(
            vec![Fall, Br(-2), Halt],
            16,
            FuelVariant::Correct,
            pass(0, 0, 0),
        ),
        fuel(
            vec![Br(-1), Halt],
            16,
            FuelVariant::BackwardJumpAccepted,
            caught("Runaway { steps: 3 }", 3),
        ),
        fuel(
            vec![Br(1), Halt, Halt],
            8,
            FuelVariant::FuelNotChargedOnTakenBranch,
            caught("FuelLeak { steps: 1, charged: 0 }", 1),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_six_families_with_44_rows() {
        let rows = gate();
        let planted = |r: &&GateRow| matches!(r.expect, Expect::Caught { .. });
        assert_eq!(rows.len(), 44);
        assert_eq!(rows.iter().filter(planted).count(), 20);
        for family in ["mc", "rc", "lock", "doorbell", "journal", "fuel"] {
            assert!(rows.iter().any(|r| r.family == family && planted(&r)));
            assert!(rows.iter().any(|r| r.family == family && !planted(&r)));
        }
    }

    #[test]
    fn rows_fail_closed() {
        // A state space that differs from the pin is not "ok".
        let drifted = rc(0, RcVariant::Correct, pass(4, 4, 2)).check();
        assert!(drifted.unwrap_err().contains("DRIFTED"));
        // A violation on a correct row carries its counterexample.
        let failed = rc(0, RcVariant::LoadThenSub, pass(4, 4, 1)).check();
        assert!(failed
            .unwrap_err()
            .contains("FAILED on clones=0 LoadThenSub\nviolation: Leak"));
        // A planted bug that passes is a checker without teeth.
        let missed = rc(0, RcVariant::Correct, caught("Leak", 4)).check();
        assert!(missed.unwrap_err().contains("MISSED"));
        // Catching a different violation, or by a different schedule,
        // is not catching the planted bug.
        let wrong_kind = rc(0, RcVariant::LoadThenSub, caught("Residue { refs: 1 }", 4));
        assert!(wrong_kind.check().unwrap_err().contains("MISCAUGHT"));
        let wrong_len = rc(0, RcVariant::LoadThenSub, caught("Leak", 5));
        assert!(wrong_len.check().unwrap_err().contains("MISCAUGHT"));
    }
}
