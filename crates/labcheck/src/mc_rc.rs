//! Deterministic interleaving model checker for the buffer-pool
//! refcount-release protocol.
//!
//! `BufHandle` (crates/ipc/src/buf.rs) frees its slot with the Arc
//! protocol: `clone` is a `fetch_add`, `drop` is a `fetch_sub` whose
//! *return value* decides the free — the slot is recycled iff the
//! decrement observed `1`, i.e. this drop destroyed the last handle.
//! That decision must be a single atomic read-modify-write: splitting it
//! into a load and a store re-introduces the classic refcounting races.
//! `slice` is a clone to this protocol: it builds its view on
//! `self.clone()` — one `fetch_add` on the same slot, nothing else — and
//! only the new handle's `off`/`len`, which the counter never sees,
//! differ; growing a view with `extend_with` moves no count at all.
//!
//! This checker decomposes two threads' clone/use/release sequences into
//! atomic steps and explores every interleaving exhaustively
//! ([`crate::explore`]).
//! Planted-bug variants split the release decision the two possible wrong
//! ways and must be caught:
//!
//! - [`RcVariant::LoadThenSub`] — decide on a *pre*-decrement load, then
//!   decrement separately. Two racing drops can both observe `2`, so
//!   nobody frees: the slot leaks.
//! - [`RcVariant::SubThenLoad`] — decrement, then decide on a separate
//!   load of the counter. Two racing drops can both observe `0` after
//!   both decrements land: the slot is freed twice.
//!
//! Invariants: no use of a freed slot, no double free, and at quiescence
//! the slot is freed exactly once with a zero refcount.

use crate::explore::{Model, Step, Violating};

/// Release-protocol variant under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RcVariant {
    /// The shipped protocol: one atomic `fetch_sub`, free iff it
    /// returned 1.
    Correct,
    /// Bug: load the counter, decide, then decrement — racing drops both
    /// see a count above 1 and the slot leaks.
    LoadThenSub,
    /// Bug: decrement, then load and free on zero — racing drops both
    /// see zero and the slot is freed twice.
    SubThenLoad,
}

/// Model-checker configuration: two threads, each starting with one
/// handle to the same slot, cloning it `clones` times before releasing
/// everything it owns (each handle is used once before its release).
#[derive(Debug, Clone, Copy)]
pub struct RcConfig {
    /// Clones each thread performs before releasing (0 = plain drop race).
    pub clones: u8,
    /// Release protocol under test.
    pub variant: RcVariant,
}

impl RcConfig {
    /// The shipped protocol at the given clone depth.
    pub fn correct(clones: u8) -> RcConfig {
        RcConfig {
            clones,
            variant: RcVariant::Correct,
        }
    }
}

/// Safety violation detected mid-exploration or at quiescence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RcViolation {
    /// A thread used a handle whose slot was already recycled.
    UseAfterFree { thread: usize },
    /// The slot was returned to the free list twice.
    DoubleFree { thread: usize },
    /// All handles released but the slot was never freed.
    Leak,
    /// Quiescent refcount is not zero (accounting drift).
    Residue { refs: u8 },
}

/// Per-thread model state. `pc` encodes where in the clone/use/release
/// cycle the thread is: 0 = choose next action, 1 = release step A done
/// (split variants only, `observed` holds the stale view).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Thread {
    /// Handles currently owned.
    owned: u8,
    /// Clones performed so far.
    cloned: u8,
    /// 0 = choose (clone / use+begin release / done); 1 = finish a split
    /// release.
    pc: u8,
    /// Counter value observed by a split release's first step.
    observed: u8,
}

/// Joint state of the two-thread system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct State {
    /// The shared atomic refcount.
    refs: u8,
    /// True once the slot has been returned to the free list.
    freed: bool,
    threads: [Thread; 2],
}

impl RcConfig {
    fn thread_done(&self, t: &Thread) -> bool {
        t.pc == 0 && t.owned == 0 && t.cloned == self.clones
    }
}

impl Model for RcConfig {
    type State = State;
    type Violation = RcViolation;

    fn init(&self) -> State {
        State {
            refs: 2,
            freed: false,
            threads: [Thread {
                owned: 1,
                cloned: 0,
                pc: 0,
                observed: 0,
            }; 2],
        }
    }

    fn is_terminal(&self, s: &State) -> bool {
        s.threads.iter().all(|t| self.thread_done(t))
    }

    fn check_terminal(&self, s: &State) -> Result<(), RcViolation> {
        if !s.freed {
            return Err(RcViolation::Leak);
        }
        if s.refs != 0 {
            return Err(RcViolation::Residue { refs: s.refs });
        }
        Ok(())
    }

    /// Scheduler order: thread 0's step, then thread 1's.
    fn successors(
        &self,
        s: &State,
        out: &mut Vec<Step<State>>,
    ) -> Result<(), Violating<RcViolation>> {
        for tid in 0..2 {
            if !self.thread_done(&s.threads[tid]) {
                thread_step(self, s, tid, out)?;
            }
        }
        Ok(())
    }
}

/// Push the successor states of one atomic step by thread `tid`.
fn thread_step(
    cfg: &RcConfig,
    s: &State,
    tid: usize,
    out: &mut Vec<Step<State>>,
) -> Result<(), Violating<RcViolation>> {
    let t = s.threads[tid];
    if t.pc == 0 {
        if t.cloned < cfg.clones {
            // clone: one atomic fetch_add. Cloning requires a live handle
            // — model the use-after-free a clone of a freed slot would be.
            if s.freed {
                return Err((
                    RcViolation::UseAfterFree { thread: tid },
                    format!("t{tid}: clone on freed slot"),
                ));
            }
            let mut n = *s;
            n.refs = s.refs.wrapping_add(1);
            n.threads[tid].cloned = t.cloned + 1;
            n.threads[tid].owned = t.owned + 1;
            out.push((n, format!("t{tid}: clone (refs -> {})", n.refs)));
        } else if t.owned > 0 {
            // use the handle's bytes, then begin its release
            if s.freed {
                return Err((
                    RcViolation::UseAfterFree { thread: tid },
                    format!("t{tid}: read through freed slot"),
                ));
            }
            match cfg.variant {
                RcVariant::Correct => {
                    // one atomic fetch_sub; its return value decides
                    let prev = s.refs;
                    let mut n = *s;
                    n.refs = prev.wrapping_sub(1);
                    n.threads[tid].owned = t.owned - 1;
                    let mut label = format!("t{tid}: use + fetch_sub (prev={prev})");
                    if prev == 1 {
                        if s.freed {
                            return Err((RcViolation::DoubleFree { thread: tid }, label));
                        }
                        n.freed = true;
                        label.push_str(", free");
                    }
                    out.push((n, label));
                }
                RcVariant::LoadThenSub => {
                    // bug step A: decide on a pre-decrement load
                    let mut n = *s;
                    n.threads[tid].observed = s.refs;
                    n.threads[tid].pc = 1;
                    out.push((n, format!("t{tid}: use + load (refs={})", s.refs)));
                }
                RcVariant::SubThenLoad => {
                    // bug step A: decrement, discard the return value
                    let mut n = *s;
                    n.refs = s.refs.wrapping_sub(1);
                    n.threads[tid].pc = 1;
                    out.push((n, format!("t{tid}: use + fetch_sub (refs -> {})", n.refs)));
                }
            }
        }
    } else {
        // pc == 1: second half of a split release
        match cfg.variant {
            RcVariant::LoadThenSub => {
                let mut n = *s;
                n.refs = s.refs.wrapping_sub(1);
                n.threads[tid].owned = t.owned - 1;
                n.threads[tid].pc = 0;
                let mut label = format!("t{tid}: fetch_sub (observed was {})", t.observed);
                if t.observed == 1 {
                    if s.freed {
                        return Err((RcViolation::DoubleFree { thread: tid }, label));
                    }
                    n.freed = true;
                    label.push_str(", free");
                }
                out.push((n, label));
            }
            RcVariant::SubThenLoad => {
                let observed = s.refs;
                let mut n = *s;
                n.threads[tid].owned = t.owned - 1;
                n.threads[tid].pc = 0;
                let mut label = format!("t{tid}: load (refs={observed})");
                if observed == 0 {
                    if s.freed {
                        return Err((RcViolation::DoubleFree { thread: tid }, label));
                    }
                    n.freed = true;
                    label.push_str(", free");
                }
                out.push((n, label));
            }
            RcVariant::Correct => unreachable!("correct release is a single step"),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;

    // The gate table (`crate::gate`) runs and pins clones 0/1/3 of the
    // shipped protocol and all three planted-bug rows.

    #[test]
    fn correct_protocol_frees_exactly_once() {
        for clones in 0..=3 {
            let report = explore(&RcConfig::correct(clones)).expect("no violations");
            assert!(report.terminals >= 1, "clones={clones} must quiesce");
        }
    }
}
