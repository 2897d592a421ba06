//! Deterministic interleaving model checker for the doorbell park/wake
//! protocol (`labstor_ipc::doorbell`).
//!
//! The reactor runtime lives or dies by one liveness property: **a
//! producer's ring after an envelope is queued must eventually wake a
//! consumer that decided to park**. The shipped protocol earns it with
//! an epoch word and a capture/check/re-check dance:
//!
//! * Producer: push the burst, then `ring()` — bump the epoch, then
//!   notify (under the bell mutex) if a waiter is registered. One ring
//!   per burst (the PR 3 one-doorbell-per-burst contract).
//! * Consumer: capture the epoch **before** scanning; scan; if idle,
//!   re-read the epoch a few times without registering (the pre-park
//!   phase: a moved epoch sends it straight back to the scan), then
//!   register as a waiter and — *under the bell mutex* — re-check that
//!   the epoch still equals the capture before sleeping. A ring that
//!   landed anywhere between capture and park moves the epoch, the
//!   re-check sees it, and the consumer retries instead of sleeping.
//!
//! This checker exhaustively explores producer/consumer interleavings
//! (`explore::explore`) of that protocol and three planted bugs, with **no
//! timeout in the model**: the real `wait_past` carries a safety-net timeout, but the
//! protocol must not need it.
//!
//! - `DoorbellVariant::Correct` — the shipped protocol. Every schedule
//!   drains every burst; no reachable state has the consumer parked with
//!   work queued and no ring in flight. The pre-park phase's length is a
//!   run-time heuristic, so every idle scan branches over 0, 1 and 2
//!   epoch re-reads before registration.
//! - `DoorbellVariant::ParkWithoutRecheck` — the classic lost wakeup:
//!   the consumer parks after its idle scan *without* re-checking the
//!   epoch under the mutex. A ring between "check empty" and "park"
//!   already notified nobody, so the consumer sleeps on a non-empty
//!   queue forever.
//! - `DoorbellVariant::EdgeOnlyRing` — ring only on the producer's
//!   *believed* empty→non-empty edge: read the queue depth, push, and
//!   skip the ring if the pre-push read was non-zero. The belief is
//!   stale the moment a consumer pops concurrently, so a push can land
//!   on a queue the consumer just drained — no edge observed, no ring,
//!   consumer parks forever. (This is why the real producers ring
//!   unconditionally per successful burst.)
//! - `DoorbellVariant::PhaseReadAsRecheck` — the tempting shortcut the
//!   pre-park phase invites: the consumer just read the epoch, so it
//!   registers and sleeps without reading it again under the mutex. The
//!   phase's read is taken *before* registration, so a ring between that
//!   read and the registration finds no waiter to notify — the same lost
//!   wakeup as `ParkWithoutRecheck`, one step later.

use crate::explore::{Model, Step, Violating};

/// Park/wake protocol under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DoorbellVariant {
    /// The shipped protocol: capture before scan, re-check under the
    /// mutex before sleeping, unconditional ring per burst.
    Correct,
    /// Planted bug: park after the idle scan without re-checking the
    /// epoch (ring between "check empty" and "park" is lost).
    ParkWithoutRecheck,
    /// Planted bug: ring only when the producer's pre-push depth read
    /// was zero — a stale emptiness belief skips the wake.
    EdgeOnlyRing,
    /// Planted bug: the pre-park phase's last epoch read stands in for
    /// the under-mutex re-check.
    PhaseReadAsRecheck,
}

/// Model-checker configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DoorbellConfig {
    /// Number of producer bursts.
    pub(crate) bursts: u8,
    /// Envelopes pushed per burst (one ring per burst regardless).
    pub(crate) batch: u8,
    /// Protocol under test.
    pub(crate) variant: DoorbellVariant,
}

impl DoorbellConfig {
    /// The shipped protocol at a given shape.
    #[cfg(test)]
    fn correct(bursts: u8, batch: u8) -> Self {
        DoorbellConfig {
            bursts,
            batch,
            variant: DoorbellVariant::Correct,
        }
    }
}

/// Liveness violation detected at a stuck state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DoorbellViolation {
    /// The consumer is parked, envelopes are queued, and no ring is in
    /// flight: nothing will ever wake it (the model has no timeout).
    LostWakeup {
        /// Envelopes stranded in the queue.
        queued: u8,
    },
    /// Backstop: some other quiescent-but-unfinished state.
    Stuck,
}

/// Producer position within the current burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PPhase {
    /// `EdgeOnlyRing` only: read the queue depth (the stale belief).
    ReadDepth,
    /// Push the `i`-th envelope of the burst.
    Push(u8),
    /// Ring step 1: bump the epoch (SeqCst in the real bell).
    RingEpoch,
    /// Ring step 2: notify under the mutex if a waiter is registered.
    RingNotify,
}

/// Consumer position. `Parked` has no self-transition — only a
/// producer's `RingNotify` moves a parked consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CPhase {
    /// Capture the epoch (before the scan — the protocol's key line).
    Capture,
    /// Scan: pop if non-empty, else fall through to the park sequence.
    Scan,
    /// Pre-park phase with this many epoch re-reads left; the consumer
    /// is not a waiter yet, so a ring here notifies nobody.
    Phase(u8),
    /// Register as a waiter on the bell.
    Register,
    /// Decide to sleep. `Correct` re-checks the epoch against the
    /// capture under the mutex; `ParkWithoutRecheck` and
    /// `PhaseReadAsRecheck` do not.
    ParkDecide,
    /// Asleep on the condvar.
    Parked,
    /// Woken (or retreating): deregister, then rescan.
    Deregister,
    /// All envelopes popped.
    Done,
}

impl CPhase {
    /// Where an idle consumer with `reads` pre-park re-reads still to
    /// make stands: in the phase, or at registration once none are left.
    fn pre_park(reads: u8) -> CPhase {
        match reads {
            0 => CPhase::Register,
            _ => CPhase::Phase(reads),
        }
    }
}

/// Joint state of the two-thread model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct State {
    /// Queue depth.
    q: u8,
    /// Doorbell epoch (bounded by the burst count).
    epoch: u8,
    /// Consumer's captured epoch.
    capture: u8,
    /// `EdgeOnlyRing` producer's pre-push depth read.
    saw: u8,
    /// A consumer registered on the bell.
    waiters: bool,
    pphase: PPhase,
    /// Bursts fully issued.
    burst: u8,
    cphase: CPhase,
    /// Envelopes popped so far.
    popped: u8,
}

impl DoorbellConfig {
    /// Where the producer starts each burst.
    fn burst_start(&self) -> PPhase {
        if self.variant == DoorbellVariant::EdgeOnlyRing {
            PPhase::ReadDepth
        } else {
            PPhase::Push(0)
        }
    }

    /// How many pre-park epoch re-reads an idle scan may be followed by.
    /// The two PR 9 planted bugs keep the PR 9 consumer (none); the
    /// shortcut needs at least one read to take.
    fn phase_reads(&self) -> std::ops::RangeInclusive<u8> {
        match self.variant {
            DoorbellVariant::Correct => 0..=2,
            DoorbellVariant::PhaseReadAsRecheck => 1..=2,
            DoorbellVariant::ParkWithoutRecheck | DoorbellVariant::EdgeOnlyRing => 0..=0,
        }
    }

    fn producer_step(&self, s: &State) -> Step<State> {
        let mut n = *s;
        let label = match s.pphase {
            PPhase::ReadDepth => {
                n.saw = s.q;
                n.pphase = PPhase::Push(0);
                format!("prod: read depth = {}", s.q)
            }
            PPhase::Push(i) => {
                n.q += 1;
                n.pphase = if i + 1 < self.batch {
                    PPhase::Push(i + 1)
                } else {
                    PPhase::RingEpoch
                };
                format!("prod: push (q -> {})", n.q)
            }
            PPhase::RingEpoch => {
                if self.variant == DoorbellVariant::EdgeOnlyRing && s.saw != 0 {
                    // Stale belief "already non-empty": skip the ring.
                    n.burst += 1;
                    n.pphase = if n.burst < self.bursts {
                        PPhase::ReadDepth
                    } else {
                        s.pphase
                    };
                    "prod: skip ring (believed non-empty)".to_string()
                } else {
                    n.epoch += 1;
                    n.pphase = PPhase::RingNotify;
                    format!("prod: ring epoch -> {}", n.epoch)
                }
            }
            PPhase::RingNotify => {
                if s.waiters && s.cphase == CPhase::Parked {
                    n.cphase = CPhase::Deregister;
                }
                n.burst += 1;
                n.pphase = self.burst_start();
                "prod: notify".to_string()
            }
        };
        (n, label)
    }

    /// The consumer's steps from `s`: one, except after an idle scan,
    /// which branches over the length of the pre-park phase.
    fn consumer_steps(&self, s: &State, out: &mut Vec<Step<State>>) {
        let mut n = *s;
        let label = match s.cphase {
            CPhase::Capture => {
                n.capture = s.epoch;
                n.cphase = CPhase::Scan;
                format!("cons: capture epoch {}", s.epoch)
            }
            CPhase::Scan => {
                if s.q > 0 {
                    n.q -= 1;
                    n.popped += 1;
                    n.cphase = if n.popped == self.bursts * self.batch {
                        CPhase::Done
                    } else {
                        CPhase::Capture
                    };
                    format!("cons: pop (q -> {})", n.q)
                } else {
                    for reads in self.phase_reads() {
                        n.cphase = CPhase::pre_park(reads);
                        out.push((n, format!("cons: scan idle, {reads} pre-park reads")));
                    }
                    return;
                }
            }
            CPhase::Phase(left) => {
                if s.epoch != s.capture {
                    n.cphase = CPhase::Capture;
                    "cons: pre-park read sees ring, rescan".to_string()
                } else {
                    n.cphase = CPhase::pre_park(left - 1);
                    "cons: pre-park read, epoch unchanged".to_string()
                }
            }
            CPhase::Register => {
                n.waiters = true;
                n.cphase = CPhase::ParkDecide;
                "cons: register waiter".to_string()
            }
            CPhase::ParkDecide => {
                let recheck = !matches!(
                    self.variant,
                    DoorbellVariant::ParkWithoutRecheck | DoorbellVariant::PhaseReadAsRecheck
                );
                if recheck && s.epoch != s.capture {
                    n.cphase = CPhase::Deregister;
                    "cons: recheck sees ring, retreat".to_string()
                } else {
                    // Re-check and sleep are one atomic step: both
                    // sides hold the bell mutex, and the condvar
                    // releases it atomically with sleeping.
                    n.cphase = CPhase::Parked;
                    "cons: park".to_string()
                }
            }
            CPhase::Deregister => {
                n.waiters = false;
                n.cphase = CPhase::Capture;
                "cons: deregister".to_string()
            }
            CPhase::Parked | CPhase::Done => unreachable!(),
        };
        out.push((n, label));
    }
}

impl Model for DoorbellConfig {
    type State = State;
    type Violation = DoorbellViolation;

    fn init(&self) -> State {
        State {
            q: 0,
            epoch: 0,
            capture: 0,
            saw: 0,
            waiters: false,
            pphase: self.burst_start(),
            burst: 0,
            cphase: CPhase::Capture,
            popped: 0,
        }
    }

    fn is_terminal(&self, s: &State) -> bool {
        s.burst >= self.bursts && s.cphase == CPhase::Done
    }

    /// Scheduler order: the producer's step, then the consumer's. A
    /// parked consumer contributes no step.
    fn successors(
        &self,
        s: &State,
        out: &mut Vec<Step<State>>,
    ) -> Result<(), Violating<DoorbellViolation>> {
        if s.burst < self.bursts {
            out.push(self.producer_step(s));
        }
        if !matches!(s.cphase, CPhase::Done | CPhase::Parked) {
            self.consumer_steps(s, out);
        }
        Ok(())
    }

    /// The producer is done and the consumer cannot move.
    fn stuck(&self, s: &State) -> DoorbellViolation {
        if s.cphase == CPhase::Parked && s.q > 0 {
            DoorbellViolation::LostWakeup { queued: s.q }
        } else {
            DoorbellViolation::Stuck
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;

    // The gate table (`crate::gate`) runs and pins the 3x1, 2x2 and 2x3
    // shapes of the shipped protocol and the planted bugs at 2x1 and 3x2.

    #[test]
    fn correct_protocol_never_strands_a_parked_consumer() {
        for (bursts, batch) in [(1, 1), (3, 1), (2, 2), (2, 3)] {
            let report = explore(&DoorbellConfig::correct(bursts, batch))
                .expect("capture/recheck protocol is lost-wakeup free");
            assert!(report.terminals >= 1);
            assert!(report.states > 10, "got {} states", report.states);
        }
    }
}
