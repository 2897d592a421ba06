//! Deterministic interleaving model checker for the SPSC ring hot path.
//!
//! `SpscRing::producer_push`/`producer_push_iter` and
//! `consumer_pop`/`consumer_pop_batch` (crates/ipc/src/ring.rs) are
//! decomposed into their atomic steps — counter loads, the occupancy
//! check, the slot access, the publishing store — and a scheduler explores
//! *every* reachable interleaving of the two threads (`explore::explore`).
//! This is equivalent to enumerating all schedules up to the configured
//! operation bound while staying tractable: depth 6/6 is a few thousand
//! states, not C(48,24) sequences.
//!
//! Modeled faithfully from the implementation:
//! - counters are fixed-width and wrap (modeled as `u8` so wraparound is
//!   actually exercised — see `McConfig::start`);
//! - slot index = counter masked by capacity (a power of two);
//! - the producer re-reads `head`, the consumer re-reads `tail`, and with
//!   `McConfig::stale_reads` those loads may return *any* value the
//!   other side ever published since the reader's last observation —
//!   the coherence-permitted weakness of an Acquire load of a counter the
//!   other thread bumps with Release stores. (Store/store reordering is
//!   *not* modeled; the release fences in the implementation are what
//!   forbid it.)
//! - with `McConfig::batch` `> 1` each operation claims up to `batch`
//!   slots from one counter observation, touches them one atomic step at
//!   a time, and publishes the whole burst with **one** counter store —
//!   exactly the batched-doorbell protocol of `producer_push_iter` /
//!   `consumer_pop_batch`.
//!   With batched publication a counter skips intermediate values; the
//!   stale-read model still enumerates them, a safe-side
//!   over-approximation (a skipped value only ever implies *fewer*
//!   claimable slots than the published one).
//!
//! Invariants checked on every step / terminal state:
//! - a push never overwrites a slot still holding an unconsumed element
//!   (no lost elements);
//! - a pop never reads an empty/unpublished slot (no use of uninitialized
//!   memory, no double-consume);
//! - pops observe values in FIFO order (no reordering, no duplication);
//! - when both sides finish, occupancy and residual slot contents match
//!   exactly what `Drop` will drain;
//! - completion is reachable (a livelocked algorithm fails the run).

use crate::explore::{Model, Step, Violating};

/// Maximum modeled capacity (slots array is fixed-size to keep the state
/// hashable and cheap to clone).
pub(crate) const MAX_CAP: usize = 8;

/// Algorithm variant to explore. The buggy variants exist so tests can
/// prove the checker actually detects the bug classes it claims to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Variant {
    /// The shipped algorithm.
    Correct,
    /// Full check uses `> cap` instead of `== cap`: admits one push too
    /// many, clobbering the oldest unconsumed slot.
    FullCheckOffByOne,
    /// Consumer publishes `head + 1` *before* reading the slot: the
    /// producer may reuse the slot while the pop is still in flight.
    AdvanceHeadBeforeRead,
    /// Producer forgets the publishing store of `tail`: elements are
    /// written but never become visible, so the run cannot complete.
    MissingPublish,
    /// Batched producer publishes the *full* batch tail after writing
    /// only the first slot: the consumer may claim and read slots of the
    /// burst that were never written. Requires `batch > 1` to manifest.
    BatchPublishEarly,
}

/// Model-checker configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct McConfig {
    /// Ring capacity; must be a power of two `<= MAX_CAP`.
    pub(crate) cap: u8,
    /// Number of push operations on the producer side.
    pub(crate) pushes: u8,
    /// Number of pop operations on the consumer side (`<= pushes`).
    pub(crate) pops: u8,
    /// Initial value of both counters. Set near `u8::MAX` to drive the
    /// counters across the wrap during the run.
    pub(crate) start: u8,
    /// Model stale counter reads (see module docs).
    pub(crate) stale_reads: bool,
    /// Slots each operation may claim from one counter observation before
    /// its single publishing store (1 = the classic per-element protocol).
    pub(crate) batch: u8,
    /// Algorithm variant under test.
    pub(crate) variant: Variant,
}

impl McConfig {
    /// A correct-algorithm exploration at the given depth.
    pub(crate) fn correct(cap: u8, ops: u8) -> McConfig {
        McConfig {
            cap,
            pushes: ops,
            pops: ops,
            start: 0,
            stale_reads: true,
            batch: 1,
            variant: Variant::Correct,
        }
    }

    /// A correct-algorithm exploration using batched publication.
    pub(crate) fn correct_batched(cap: u8, ops: u8, batch: u8) -> McConfig {
        McConfig {
            batch,
            ..McConfig::correct(cap, ops)
        }
    }
}

/// Safety violation detected mid-exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Violation {
    /// Push wrote over a slot still holding an unconsumed value.
    Overwrite { slot: usize, lost: u8 },
    /// Pop read a slot with no published value.
    ReadUninit { slot: usize },
    /// Pop observed a value out of FIFO order.
    OutOfOrder { expected: u8, got: u8 },
    /// Both sides finished but occupancy/slot residue is inconsistent
    /// with the counters (what `Drop` relies on).
    Terminal(String),
    /// Exploration exhausted the state space without ever reaching a
    /// state where both sides completed (livelock / lost wakeup).
    NoCompletion,
}

/// Joint state of the two-thread system. Program counters encode where
/// inside push/pop each side is; locals mirror the implementation's stack
/// variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct State {
    // Shared memory.
    head: u8,
    tail: u8,
    slots: [Option<u8>; MAX_CAP],
    // Producer: pc 0 = idle/start, 1 = read head, 2 = claim (occupancy
    // check), 3 = write slot (loops `p_todo` times), 4 = publish tail.
    p_pc: u8,
    p_tail: u8,
    p_head: u8,
    p_seen_head: u8,
    /// Slots claimed for the current burst.
    p_todo: u8,
    /// Slots of the current burst already written.
    p_written: u8,
    pushed: u8,
    // Consumer: pc 0 = idle/start, 1 = read tail, 2 = claim (empty
    // check), 3 = read slot (loops `c_todo` times), 4 = publish head.
    c_pc: u8,
    c_head: u8,
    c_tail: u8,
    c_seen_tail: u8,
    /// Slots claimed for the current burst.
    c_todo: u8,
    /// Slots of the current burst already read.
    c_read: u8,
    popped: u8,
}

impl McConfig {
    fn producer_done(&self, s: &State) -> bool {
        s.p_pc == 0 && s.pushed == self.pushes
    }

    fn consumer_done(&self, s: &State) -> bool {
        s.c_pc == 0 && s.popped == self.pops
    }
}

impl Model for McConfig {
    type State = State;
    type Violation = Violation;

    fn init(&self) -> State {
        assert!(
            self.cap.is_power_of_two() && (self.cap as usize) <= MAX_CAP,
            "cap must be 2/4/8"
        );
        assert!(self.pops <= self.pushes, "cannot pop more than is pushed");
        assert!(self.batch >= 1, "batch must be at least 1");
        State {
            head: self.start,
            tail: self.start,
            slots: [None; MAX_CAP],
            p_pc: 0,
            p_tail: 0,
            p_head: 0,
            p_seen_head: self.start,
            p_todo: 0,
            p_written: 0,
            pushed: 0,
            c_pc: 0,
            c_head: 0,
            c_tail: 0,
            c_seen_tail: self.start,
            c_todo: 0,
            c_read: 0,
            popped: 0,
        }
    }

    fn is_terminal(&self, s: &State) -> bool {
        self.producer_done(s) && self.consumer_done(s)
    }

    /// Invariants of a both-sides-done state: counters account for exactly
    /// the unconsumed elements, residual slots hold exactly the FIFO suffix
    /// (this is what `SpscRing::drop` walks), and nothing else survives.
    fn check_terminal(&self, s: &State) -> Result<(), Violation> {
        let remaining = s.tail.wrapping_sub(s.head);
        if remaining != self.pushes - self.pops {
            return Err(Violation::Terminal(format!(
                "occupancy {} != expected {}",
                remaining,
                self.pushes - self.pops
            )));
        }
        let mut expected_slots = [None; MAX_CAP];
        for k in 0..remaining {
            let idx = (s.head.wrapping_add(k) % self.cap) as usize;
            expected_slots[idx] = Some(self.pops + k);
        }
        if s.slots != expected_slots {
            return Err(Violation::Terminal(format!(
                "residual slots {:?} != expected {:?}",
                s.slots, expected_slots
            )));
        }
        Ok(())
    }

    /// Scheduler order: the producer's step, then the consumer's.
    fn successors(
        &self,
        s: &State,
        out: &mut Vec<Step<State>>,
    ) -> Result<(), Violating<Violation>> {
        if !self.producer_done(s) {
            producer_step(self, s, out)?;
        }
        if !self.consumer_done(s) {
            consumer_step(self, s, out)?;
        }
        Ok(())
    }

    /// Both sides spin rather than block, so an algorithm that cannot
    /// finish shows up as a state space with no both-sides-done state.
    fn never_terminated(&self) -> Option<Violation> {
        Some(Violation::NoCompletion)
    }
}

/// Push all successor states of one producer step, or report a violation.
fn producer_step(
    cfg: &McConfig,
    s: &State,
    out: &mut Vec<Step<State>>,
) -> Result<(), Violating<Violation>> {
    match s.p_pc {
        // load own tail (exact: only this thread stores it)
        0 => {
            let mut n = *s;
            n.p_tail = s.tail;
            n.p_pc = 1;
            out.push((n, format!("producer: read tail={}", n.p_tail)));
        }
        // load head, possibly stale
        1 => {
            for h in observable(cfg, s.p_seen_head, s.head) {
                let mut n = *s;
                n.p_head = h;
                n.p_seen_head = h;
                n.p_pc = 2;
                out.push((n, format!("producer: read head={h}")));
            }
        }
        // claim: occupancy check, burst size = min(free, batch, left)
        2 => {
            let occupancy = s.p_tail.wrapping_sub(s.p_head);
            // The off-by-one variant believes one more slot is free than
            // the ring has (`> cap` instead of `== cap` in the classic
            // per-element check).
            let free = match cfg.variant {
                Variant::FullCheckOffByOne => (cfg.cap + 1).saturating_sub(occupancy),
                _ => cfg.cap.saturating_sub(occupancy),
            };
            let burst = free.min(cfg.batch).min(cfg.pushes - s.pushed);
            let mut n = *s;
            if burst == 0 {
                n.p_pc = 0;
                out.push((
                    n,
                    format!("producer: check occupancy={occupancy} (full, retry)"),
                ));
            } else {
                n.p_todo = burst;
                n.p_written = 0;
                n.p_pc = 3;
                out.push((
                    n,
                    format!("producer: check occupancy={occupancy} (claim {burst})"),
                ));
            }
        }
        // write one slot of the burst
        3 => {
            let slot = (s.p_tail.wrapping_add(s.p_written) % cfg.cap) as usize;
            let value = s.pushed;
            if let Some(lost) = s.slots[slot] {
                return Err((
                    Violation::Overwrite { slot, lost },
                    format!("producer: write slot[{slot}]={value} OVER {lost}"),
                ));
            }
            let mut n = *s;
            n.slots[slot] = Some(value);
            n.pushed = s.pushed + 1;
            n.p_written = s.p_written + 1;
            let mut label = format!("producer: write slot[{slot}]={value}");
            if cfg.variant == Variant::BatchPublishEarly && s.p_written == 0 {
                // Bug: doorbell rings for the whole burst after the first
                // slot write.
                n.tail = s.p_tail.wrapping_add(s.p_todo);
                label = format!("{label}, publish tail={} (EARLY)", n.tail);
            }
            n.p_pc = if n.p_written == s.p_todo {
                // Early-publish variant already rang the doorbell.
                if cfg.variant == Variant::BatchPublishEarly {
                    0
                } else {
                    4
                }
            } else {
                3
            };
            out.push((n, label));
        }
        // publish tail: one Release store for the whole burst
        _ => {
            let mut n = *s;
            if cfg.variant != Variant::MissingPublish {
                n.tail = s.p_tail.wrapping_add(s.p_todo);
            }
            n.p_pc = 0;
            out.push((n, format!("producer: publish tail={}", n.tail)));
        }
    }
    Ok(())
}

/// Push all successor states of one consumer step, or report a violation.
fn consumer_step(
    cfg: &McConfig,
    s: &State,
    out: &mut Vec<Step<State>>,
) -> Result<(), Violating<Violation>> {
    match s.c_pc {
        // load own head (exact)
        0 => {
            let mut n = *s;
            n.c_head = s.head;
            n.c_pc = 1;
            out.push((n, format!("consumer: read head={}", n.c_head)));
        }
        // load tail, possibly stale
        1 => {
            for t in observable(cfg, s.c_seen_tail, s.tail) {
                let mut n = *s;
                n.c_tail = t;
                n.c_seen_tail = t;
                n.c_pc = 2;
                out.push((n, format!("consumer: read tail={t}")));
            }
        }
        // claim: empty check, burst size = min(available, batch, left)
        2 => {
            let avail = s.c_tail.wrapping_sub(s.c_head);
            let burst = avail.min(cfg.batch).min(cfg.pops - s.popped);
            let mut n = *s;
            if burst == 0 {
                n.c_pc = 0;
                out.push((n, "consumer: check (empty, retry)".to_string()));
            } else {
                n.c_todo = burst;
                n.c_read = 0;
                n.c_pc = 3;
                out.push((n, format!("consumer: check (claim {burst})")));
            }
        }
        // read one slot of the burst; in the buggy variant the head is
        // published first and the slot reads happen at pc 4.
        3 => {
            if cfg.variant == Variant::AdvanceHeadBeforeRead {
                let mut n = *s;
                n.head = s.c_head.wrapping_add(s.c_todo);
                n.c_pc = 4;
                out.push((n, format!("consumer: publish head={} (EARLY)", n.head)));
            } else {
                out.push(read_slot(cfg, s)?);
            }
        }
        // publish head: one Release store for the whole burst (or, in
        // the buggy variant, the late slot reads)
        _ => {
            if cfg.variant == Variant::AdvanceHeadBeforeRead {
                out.push(read_slot(cfg, s)?);
            } else {
                let mut n = *s;
                n.head = s.c_head.wrapping_add(s.c_todo);
                n.c_pc = 0;
                out.push((n, format!("consumer: publish head={}", n.head)));
            }
        }
    }
    Ok(())
}

/// The consumer's slot read + FIFO assertion, shared by both orderings.
fn read_slot(cfg: &McConfig, s: &State) -> Result<Step<State>, Violating<Violation>> {
    let slot = (s.c_head.wrapping_add(s.c_read) % cfg.cap) as usize;
    let label = format!("consumer: read slot[{slot}]");
    let Some(value) = s.slots[slot] else {
        return Err((Violation::ReadUninit { slot }, label));
    };
    if value != s.popped {
        return Err((
            Violation::OutOfOrder {
                expected: s.popped,
                got: value,
            },
            label,
        ));
    }
    let mut n = *s;
    n.slots[slot] = None;
    n.popped = s.popped + 1;
    n.c_read = s.c_read + 1;
    let done = n.c_read == s.c_todo;
    n.c_pc = match (cfg.variant == Variant::AdvanceHeadBeforeRead, done) {
        // Early-publish variant already advanced head; burst ends here.
        (true, true) => 0,
        (true, false) => 4,
        (false, true) => 4,
        (false, false) => 3,
    };
    Ok((n, format!("consumer: read slot[{slot}]={value}")))
}

/// Values a load of the other side's counter may return: just the current
/// value, or — with stale reads modeled — anything in the window since
/// this thread last observed it. With batched publication a counter skips
/// intermediate values; enumerating them anyway over-approximates safely
/// (a smaller counter only shrinks the burst the reader claims).
fn observable(cfg: &McConfig, last_seen: u8, current: u8) -> Vec<u8> {
    if !cfg.stale_reads {
        return vec![current];
    }
    let span = current.wrapping_sub(last_seen);
    (0..=span).map(|d| last_seen.wrapping_add(d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;

    // The gate table (`crate::gate`) runs and pins the depth-6/7, wrap,
    // partial-drain and batched shapes and all four planted bugs; the
    // tests here cover what no gate row does.

    #[test]
    fn correct_algorithm_depth_6_no_staleness() {
        let mut cfg = McConfig::correct(2, 6);
        cfg.stale_reads = false;
        let report = explore(&cfg).expect("no violations");
        assert!(report.terminals >= 1);
        assert!(report.states > 100, "exploration should be nontrivial");
    }

    #[test]
    fn batch_of_one_equals_classic_protocol() {
        // batch=1 must explore the same algorithm as the per-element
        // model (the claim step degenerates to the classic full check).
        let classic = explore(&McConfig::correct(2, 5)).expect("ok");
        let batched = explore(&McConfig::correct_batched(2, 5, 1)).expect("ok");
        assert_eq!(classic.states, batched.states);
        assert_eq!(classic.terminals, batched.terminals);
    }

    #[test]
    fn early_batch_publish_is_harmless_at_batch_one() {
        // With batch=1 the "early" doorbell covers exactly the one slot
        // already written — the planted bug needs a real burst to bite.
        let cfg = McConfig {
            variant: Variant::BatchPublishEarly,
            ..McConfig::correct(2, 4)
        };
        explore(&cfg).expect("degenerate batch cannot misfire");
    }

    #[test]
    fn stale_reads_enlarge_the_state_space() {
        let mut cfg = McConfig::correct(2, 4);
        cfg.stale_reads = false;
        let exact = explore(&cfg).expect("ok");
        cfg.stale_reads = true;
        let stale = explore(&cfg).expect("ok");
        assert!(stale.states > exact.states);
    }
}
