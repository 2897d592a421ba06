//! Deterministic model checker for the journal commit protocol.
//!
//! `crates/mods/src/journal.rs` makes a flush durable with ONE device
//! write — a sealed frame: header sector first, payload behind it — and
//! acks only after that write returned. Recovery replays the longest
//! prefix of frames whose header CRC, sequence chain and payload CRC all
//! validate. There is no commit record: the payload CRC is the commit
//! point. This checker explores every crash point and device-tear choice
//! of that protocol ([`crate::explore`]) and verifies, at every crash and
//! at clean shutdown:
//!
//! 1. **Prefix + exactly-once**: recovery applies transactions
//!    `1..=k` in order, each exactly once — no holes, no duplicates.
//! 2. **No corruption accepted**: a transaction whose frame tore never
//!    reaches the recovered state.
//! 3. **Durability**: if the device performed every acknowledged write
//!    faithfully (no silent tear in the run), every acked transaction is
//!    recovered.
//!
//! The model: the writer appends `txns` transactions, one frame each. The
//! device tears at sector granularity and in no particular order, so a
//! frame is modelled as two parts — its header sector and the rest of
//! its payload — and its write as two atomic sub-steps: an arbitrary
//! *strict subset* of the parts lands (nothing, header only, payload
//! only), then all of them. A crash between the two leaves a torn frame;
//! with [`JournalConfig::allow_silent_tear`] the scheduler may also have
//! the device *ack* the partial landing (the silent-tear fault the sim
//! injects), after which the writer proceeds believing the frame is
//! durable. (A one-sector frame lands whole or not at all, which is the
//! nothing/all path of the same model.) A crash transition is available
//! from every state.
//!
//! Planted-bug variants, each of which must be caught:
//!
//! - [`JournalVariant::AckBeforeWrite`] — the writer acks the client when
//!   it has *submitted* the frame, before the write returned. A crash in
//!   between loses an acked transaction.
//! - [`JournalVariant::ReplayTwice`] — recovery applies each committed
//!   transaction twice (a replay loop without idempotence bookkeeping).
//! - [`JournalVariant::TornCrcAccept`] — recovery skips the payload CRC
//!   and accepts any frame whose header is present, replaying torn data.
//!   With one write per transaction nothing else stands between a plain
//!   power cut and that bug, so it is caught without any device fault.

use crate::explore::{Model, Step, Violating};

/// Maximum transactions the model supports (state arrays are fixed-size).
pub const MAX_TXNS: usize = 3;

/// Journal protocol variant under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalVariant {
    /// The shipped protocol: one frame write, then ack; recovery
    /// validates header and payload CRC and stops at the first invalid
    /// frame.
    Correct,
    /// Bug: ack when the frame is submitted, before its write returned.
    AckBeforeWrite,
    /// Bug: recovery applies each committed transaction twice.
    ReplayTwice,
    /// Bug: recovery accepts a frame with a torn payload (no CRC check)
    /// as long as its header is present.
    TornCrcAccept,
}

/// Model-checker configuration.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// Transactions the writer appends (1..=[`MAX_TXNS`]).
    pub txns: u8,
    /// Whether the scheduler may silently tear a frame write (device
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

/// Which parts of one transaction's frame are on media.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Frame {
    /// Nothing landed.
    None,
    /// Only the header sector landed (torn).
    Header,
    /// Only payload sectors landed (torn).
    Payload,
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
    /// Recovery applied a transaction whose frame tore.
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
    /// About to issue the frame write.
    Start,
    /// A strict subset of the frame landed; the write is still in flight.
    InFlight,
    /// The write returned (every sector landed, or the device said so).
    Written,
}

/// Joint state: per-transaction media + ack flags, writer position, and
/// whether a silent tear happened in this run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct State {
    frame: [Frame; MAX_TXNS],
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
        let committed = match cfg.variant {
            // Bug: a valid header is "good enough" — no payload CRC.
            JournalVariant::TornCrcAccept => matches!(s.frame[i], Frame::Header | Frame::Full),
            _ => s.frame[i] == Frame::Full,
        };
        if !committed {
            // Prefix-consistent stop: nothing past the first bad frame.
            break;
        }
        applied.push(i as u8 + 1);
        if cfg.variant == JournalVariant::ReplayTwice {
            applied.push(i as u8 + 1);
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
    // No torn frame in the recovered state.
    for &t in &applied {
        if s.frame[t as usize - 1] != Frame::Full {
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
            frame: [Frame::None; MAX_TXNS],
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
                // The one write starts landing sectors, in any order: any
                // strict subset of the frame may be what is on media.
                for (landed, what) in [
                    (Frame::None, "nothing yet"),
                    (Frame::Header, "its header sector"),
                    (Frame::Payload, "payload sectors only"),
                ] {
                    let mut n = *s;
                    n.frame[i] = landed;
                    n.pc = Pc::InFlight;
                    // Bug: the client hears "durable" at submission.
                    n.acked[i] = self.variant == JournalVariant::AckBeforeWrite;
                    out.push((n, format!("txn {t}: frame write lands {what}")));
                }
            }
            Pc::InFlight => {
                // Normal completion: the rest of the sectors land.
                let mut n = *s;
                n.frame[i] = Frame::Full;
                n.pc = Pc::Written;
                out.push((n, format!("txn {t}: frame write completes")));
                if self.allow_silent_tear {
                    // Device fault: the write is acked as complete while
                    // only the subset landed.
                    let mut n = *s;
                    n.pc = Pc::Written;
                    n.faulted = true;
                    out.push((n, format!("txn {t}: device silently tears the frame")));
                }
            }
            Pc::Written => {
                // The write returned: ack, next transaction.
                let mut n = *s;
                n.acked[i] = true;
                n.cur += 1;
                n.pc = Pc::Start;
                out.push((n, format!("txn {t}: ack")));
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

    fn planted(variant: JournalVariant, allow_silent_tear: bool) -> JournalConfig {
        JournalConfig {
            txns: 1,
            allow_silent_tear,
            variant,
        }
    }

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
    fn ack_before_the_write_returned_is_caught() {
        let failure = explore(&planted(JournalVariant::AckBeforeWrite, false))
            .expect_err("must catch the lost ack");
        assert!(
            matches!(failure.violation, JournalViolation::AckedLost { txn: 1 }),
            "expected AckedLost, got {:?}",
            failure.violation
        );
        assert!(!failure.trace.is_empty(), "counterexample has a schedule");
    }

    #[test]
    fn torn_crc_accept_is_caught_by_a_plain_power_cut() {
        // The header sector landed, the payload did not, the power went:
        // no device fault is needed, the payload CRC is load-bearing.
        for tear in [false, true] {
            let failure = explore(&planted(JournalVariant::TornCrcAccept, tear))
                .expect_err("must catch the accepted tear");
            assert!(matches!(
                failure.violation,
                JournalViolation::CorruptionAccepted { txn: 1 }
            ));
        }
    }
}
