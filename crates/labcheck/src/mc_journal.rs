//! Deterministic model checker for the journal commit protocol.
//!
//! `crates/mods/src/journal.rs` makes a flush durable with two ordered
//! device writes — header+payload first, then a separate commit record —
//! and recovery replays the longest prefix of transactions whose payload
//! CRC and commit record both validate. This checker explores every
//! crash point and device-tear choice of that protocol
//! ([`crate::explore`]) and verifies, at every crash and at clean
//! shutdown:
//!
//! 1. **Prefix + exactly-once**: recovery applies transactions
//!    `1..=k` in order, each exactly once — no holes, no duplicates.
//! 2. **No corruption accepted**: a transaction whose payload tore never
//!    reaches the recovered state.
//! 3. **Durability**: if the device performed every acknowledged write
//!    faithfully (no silent tear in the run), every acked transaction is
//!    recovered.
//!
//! The model: the writer appends `txns` transactions. A body write is two
//! atomic sub-steps (partial landing, then full landing) so a crash
//! between them leaves a torn payload; with
//! [`JournalConfig::allow_silent_tear`] the scheduler may also have the
//! device *ack* the partial landing (the silent-tear fault the sim
//! injects), after which the writer proceeds believing the payload is
//! durable. The commit record occupies a single sector and is modeled
//! atomic. A crash transition is available from every state.
//!
//! Planted-bug variants, each of which must be caught:
//!
//! - [`JournalVariant::LostCommit`] — the writer acks the client after
//!   the payload write but *before* the commit record (the jbd2 ordering
//!   inverted). A crash in between loses an acked transaction.
//! - [`JournalVariant::ReplayTwice`] — recovery applies each committed
//!   transaction twice (a replay loop without idempotence bookkeeping).
//! - [`JournalVariant::TornCrcAccept`] — recovery skips the payload CRC
//!   and accepts any transaction whose header and commit record are
//!   present, replaying torn data.

use crate::explore::{Model, Step, Violating};

/// Maximum transactions the model supports (state arrays are fixed-size).
pub const MAX_TXNS: usize = 3;

/// Journal protocol variant under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalVariant {
    /// The shipped protocol: payload write, commit write, then ack;
    /// recovery validates payload CRC + commit and stops at the first
    /// invalid frame.
    Correct,
    /// Bug: ack after the payload write, before the commit record.
    LostCommit,
    /// Bug: recovery applies each committed transaction twice.
    ReplayTwice,
    /// Bug: recovery accepts a transaction with a torn payload (no CRC
    /// check) as long as header and commit record are present.
    TornCrcAccept,
}

/// Model-checker configuration.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// Transactions the writer appends (1..=[`MAX_TXNS`]).
    pub txns: u8,
    /// Whether the scheduler may silently tear a payload write (device
    /// acks a partial landing).
    pub allow_silent_tear: bool,
    /// Protocol variant under test.
    pub variant: JournalVariant,
}

impl JournalConfig {
    /// The shipped protocol.
    pub fn correct(txns: u8, allow_silent_tear: bool) -> JournalConfig {
        JournalConfig {
            txns,
            allow_silent_tear,
            variant: JournalVariant::Correct,
        }
    }
}

/// Media state of one transaction's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Body {
    /// Nothing landed.
    None,
    /// A strict prefix landed (torn).
    Torn,
    /// Every sector landed.
    Full,
}

/// Invariant violation found at a crash point or clean shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalViolation {
    /// Recovery applied transactions out of order or with a hole.
    NotAPrefix {
        /// The offending replay position.
        applied: Vec<u8>,
    },
    /// Recovery applied a transaction more than once.
    AppliedTwice {
        /// The duplicated transaction (1-based).
        txn: u8,
    },
    /// Recovery applied a transaction whose payload tore.
    CorruptionAccepted {
        /// The torn transaction (1-based).
        txn: u8,
    },
    /// An acknowledged transaction vanished although the device performed
    /// every acked write faithfully.
    AckedLost {
        /// The lost transaction (1-based).
        txn: u8,
    },
}

/// Writer program counter within the current transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    /// About to start the body write.
    Start,
    /// Body partially landed; the write is still in flight.
    BodyPartial,
    /// Body fully landed (or silently acked); commit not yet written.
    BodyDone,
    /// LostCommit only: acked, commit record still unwritten.
    AckedEarly,
}

/// Joint state: per-transaction media + ack flags, writer position, and
/// whether a silent tear happened in this run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct State {
    body: [Body; MAX_TXNS],
    commit: [bool; MAX_TXNS],
    acked: [bool; MAX_TXNS],
    /// Index of the transaction the writer is working on (== txns when
    /// the workload is complete).
    cur: u8,
    pc: Pc,
    /// True once the device silently tore an acked write.
    faulted: bool,
}

/// Deterministic recovery: which transactions (1-based) the variant's
/// replay applies, in order, with multiplicity.
fn recover(cfg: &JournalConfig, s: &State) -> Vec<u8> {
    let mut applied = Vec::new();
    for i in 0..cfg.txns as usize {
        let body_ok = match cfg.variant {
            // Bug: header + commit present is "good enough" — no CRC.
            JournalVariant::TornCrcAccept => s.body[i] != Body::None,
            _ => s.body[i] == Body::Full,
        };
        if body_ok && s.commit[i] {
            applied.push(i as u8 + 1);
            if cfg.variant == JournalVariant::ReplayTwice {
                applied.push(i as u8 + 1);
            }
        } else {
            // Prefix-consistent stop: nothing past the first bad frame.
            break;
        }
    }
    applied
}

/// Check the recovery invariants for one crash point / shutdown.
fn check_recovery(cfg: &JournalConfig, s: &State) -> Result<(), JournalViolation> {
    let applied = recover(cfg, s);
    // Exactly-once, in-order prefix.
    let mut seen = [0u8; MAX_TXNS];
    for &t in &applied {
        seen[t as usize - 1] += 1;
    }
    for (i, &count) in seen.iter().enumerate().take(cfg.txns as usize) {
        if count > 1 {
            return Err(JournalViolation::AppliedTwice { txn: i as u8 + 1 });
        }
    }
    let k = applied.len() as u8;
    for (i, &t) in applied.iter().enumerate() {
        if t != i as u8 + 1 {
            return Err(JournalViolation::NotAPrefix { applied });
        }
    }
    // No torn payload in the recovered state.
    for &t in &applied {
        if s.body[t as usize - 1] != Body::Full {
            return Err(JournalViolation::CorruptionAccepted { txn: t });
        }
    }
    // Durability: with a faithful device, acked ⊆ recovered.
    if !s.faulted {
        for i in 0..cfg.txns as usize {
            if s.acked[i] && i as u8 >= k {
                return Err(JournalViolation::AckedLost { txn: i as u8 + 1 });
            }
        }
    }
    Ok(())
}

impl Model for JournalConfig {
    type State = State;
    type Violation = JournalViolation;

    fn init(&self) -> State {
        assert!(
            self.txns >= 1 && self.txns as usize <= MAX_TXNS,
            "txns must be 1..={MAX_TXNS}"
        );
        State {
            body: [Body::None; MAX_TXNS],
            commit: [false; MAX_TXNS],
            acked: [false; MAX_TXNS],
            cur: 0,
            pc: Pc::Start,
            faulted: false,
        }
    }

    /// Every state is a potential crash point: whatever is on media right
    /// now must recover consistently. (This also covers clean shutdown,
    /// where `cur == txns`.) So the states a report counts are exactly
    /// the recoveries verified.
    fn invariant(&self, s: &State) -> Result<(), Violating<JournalViolation>> {
        check_recovery(self, s).map_err(|violation| (violation, "crash + recover".to_string()))
    }

    fn is_terminal(&self, s: &State) -> bool {
        s.cur >= self.txns // workload complete
    }

    /// The writer/device steps from `s` (a crash is not a step: the
    /// invariant above already treats every state as one).
    fn successors(
        &self,
        s: &State,
        out: &mut Vec<Step<State>>,
    ) -> Result<(), Violating<JournalViolation>> {
        let i = s.cur as usize;
        let t = s.cur + 1; // 1-based label
        match s.pc {
            Pc::Start => {
                // The body write starts landing sectors.
                let mut n = *s;
                n.body[i] = Body::Torn;
                n.pc = Pc::BodyPartial;
                out.push((n, format!("txn {t}: body write lands a prefix")));
            }
            Pc::BodyPartial => {
                // Normal completion: the rest of the sectors land.
                let mut n = *s;
                n.body[i] = Body::Full;
                n.pc = Pc::BodyDone;
                out.push((n, format!("txn {t}: body write completes")));
                if self.allow_silent_tear {
                    // Device fault: the write is acked as complete while only
                    // the prefix landed.
                    let mut n = *s;
                    n.pc = Pc::BodyDone;
                    n.faulted = true;
                    out.push((n, format!("txn {t}: device silently tears the body")));
                }
            }
            Pc::BodyDone => match self.variant {
                JournalVariant::LostCommit => {
                    // Bug: ack the client before the commit record exists.
                    let mut n = *s;
                    n.acked[i] = true;
                    n.pc = Pc::AckedEarly;
                    out.push((n, format!("txn {t}: ack BEFORE commit record")));
                }
                _ => {
                    // Commit record: one sector, atomic; then ack.
                    let mut n = *s;
                    n.commit[i] = true;
                    n.acked[i] = true;
                    n.cur += 1;
                    n.pc = Pc::Start;
                    out.push((n, format!("txn {t}: commit record + ack")));
                }
            },
            Pc::AckedEarly => {
                // LostCommit's late commit record finally lands.
                let mut n = *s;
                n.commit[i] = true;
                n.cur += 1;
                n.pc = Pc::Start;
                out.push((n, format!("txn {t}: late commit record")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;

    // The gate table (`crate::gate`) runs and pins txns=1 without tears,
    // txns=2/3 with tears, and each planted bug at txns=2.

    #[test]
    fn correct_protocol_survives_all_crash_points() {
        for txns in 1..=3 {
            for tear in [false, true] {
                let report = explore(&JournalConfig::correct(txns, tear)).expect("no violations");
                assert!(report.states > 0 && report.terminals > 0);
            }
        }
    }

    #[test]
    fn lost_commit_record_is_caught() {
        let cfg = JournalConfig {
            txns: 1,
            allow_silent_tear: false,
            variant: JournalVariant::LostCommit,
        };
        let failure = explore(&cfg).expect_err("must catch the lost ack");
        assert!(
            matches!(failure.violation, JournalViolation::AckedLost { txn: 1 }),
            "expected AckedLost, got {:?}",
            failure.violation
        );
        assert!(!failure.trace.is_empty(), "counterexample has a schedule");
    }

    #[test]
    fn torn_crc_accept_is_caught() {
        let cfg = JournalConfig {
            txns: 1,
            allow_silent_tear: true,
            variant: JournalVariant::TornCrcAccept,
        };
        let failure = explore(&cfg).expect_err("must catch the accepted tear");
        assert!(matches!(
            failure.violation,
            JournalViolation::CorruptionAccepted { txn: 1 }
        ));
    }

    #[test]
    fn torn_crc_accept_passes_without_tears() {
        // Without the device fault the buggy recovery never sees a torn
        // payload behind a commit record: the checker needs the tear
        // choice enabled to expose it.
        let cfg = JournalConfig {
            txns: 2,
            allow_silent_tear: false,
            variant: JournalVariant::TornCrcAccept,
        };
        assert!(explore(&cfg).is_ok());
    }
}
