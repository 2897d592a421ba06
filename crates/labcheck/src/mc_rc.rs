//! Deterministic interleaving model checker for the buffer-pool
//! refcount-release protocol.
//!
//! `BufHandle` (crates/ipc/src/buf.rs) frees its slot with the Arc
//! protocol: `clone` is a `fetch_add`, `drop` is a `fetch_sub` whose
//! *return value* decides the free — the slot is recycled iff the
//! decrement observed `1`, i.e. this drop destroyed the last handle.
//! That decision must be a single atomic read-modify-write: splitting it
//! into a load and a store re-introduces the classic refcounting races.
//! `slice` and `join` are clones to this protocol: each builds its view
//! on `self.clone()` — one `fetch_add` on the same slot, nothing else —
//! and only the new handle's `off`/`len`, which the counter never sees,
//! differ. A chain of joins over a run of slices is `clones` below.
//!
//! This checker decomposes two threads' clone/use/release sequences into
//! atomic steps and explores every interleaving exhaustively (visited-set
//! BFS over the joint state space, same technique as [`crate::mc`]).
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

use std::collections::{HashMap, HashSet, VecDeque};

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

/// A violation plus the schedule that reaches it.
#[derive(Debug, Clone)]
pub struct RcFailure {
    /// What went wrong.
    pub violation: RcViolation,
    /// Step labels from the initial state to the violating step.
    pub trace: Vec<String>,
}

impl std::fmt::Display for RcFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "violation: {:?}", self.violation)?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {step}", i + 1)?;
        }
        Ok(())
    }
}

/// Statistics from a completed exploration.
#[derive(Debug, Clone, Copy)]
pub struct RcReport {
    /// Distinct joint states reached.
    pub states: usize,
    /// Scheduler transitions taken.
    pub transitions: usize,
    /// Number of distinct quiescent states.
    pub terminals: usize,
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
struct State {
    /// The shared atomic refcount.
    refs: u8,
    /// True once the slot has been returned to the free list.
    freed: bool,
    threads: [Thread; 2],
}

/// Exhaustively explore all interleavings. `Ok` carries statistics;
/// `Err` carries the first violation found plus its schedule.
pub fn explore_rc(cfg: &RcConfig) -> Result<RcReport, RcFailure> {
    let init = State {
        refs: 2,
        freed: false,
        threads: [Thread {
            owned: 1,
            cloned: 0,
            pc: 0,
            observed: 0,
        }; 2],
    };

    let mut visited: HashSet<State> = HashSet::new();
    let mut parent: HashMap<State, (State, String)> = HashMap::new();
    let mut queue: VecDeque<State> = VecDeque::new();
    visited.insert(init);
    queue.push_back(init);
    let mut transitions = 0usize;
    let mut terminals = 0usize;

    while let Some(state) = queue.pop_front() {
        let done = |t: &Thread| t.pc == 0 && t.owned == 0 && t.cloned == cfg.clones;
        if state.threads.iter().all(done) {
            terminals += 1;
            if !state.freed {
                return Err(fail(RcViolation::Leak, &state, None, &parent));
            }
            if state.refs != 0 {
                return Err(fail(
                    RcViolation::Residue { refs: state.refs },
                    &state,
                    None,
                    &parent,
                ));
            }
            continue;
        }
        for tid in 0..2 {
            if done(&state.threads[tid]) {
                continue;
            }
            match thread_step(cfg, &state, tid) {
                Ok(successors) => {
                    for (next, label) in successors {
                        transitions += 1;
                        if visited.insert(next) {
                            parent.insert(next, (state, label));
                            queue.push_back(next);
                        }
                    }
                }
                Err((violation, label)) => {
                    return Err(fail(violation, &state, Some(label), &parent));
                }
            }
        }
    }

    Ok(RcReport {
        states: visited.len(),
        transitions,
        terminals,
    })
}

/// All successor states of one atomic step by thread `tid`.
#[allow(clippy::type_complexity)]
fn thread_step(
    cfg: &RcConfig,
    s: &State,
    tid: usize,
) -> Result<Vec<(State, String)>, (RcViolation, String)> {
    let t = s.threads[tid];
    let mut out = Vec::new();
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
    Ok(out)
}

/// Reconstruct the schedule from the parent map and build a failure.
fn fail(
    violation: RcViolation,
    at: &State,
    last_label: Option<String>,
    parent: &HashMap<State, (State, String)>,
) -> RcFailure {
    let mut trace = Vec::new();
    if let Some(label) = last_label {
        trace.push(label);
    }
    let mut cur = *at;
    while let Some((prev, label)) = parent.get(&cur) {
        trace.push(label.clone());
        cur = *prev;
    }
    trace.reverse();
    RcFailure { violation, trace }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_protocol_frees_exactly_once() {
        for clones in 0..=3 {
            let report = explore_rc(&RcConfig::correct(clones)).expect("no violations");
            assert!(report.terminals >= 1, "clones={clones} must quiesce");
        }
    }

    #[test]
    fn correct_protocol_exploration_is_nontrivial() {
        // The atomic fetch_sub release keeps the space small (that is the
        // point of the protocol); clones still interleave combinatorially.
        let report = explore_rc(&RcConfig::correct(3)).expect("ok");
        assert!(report.states > 30, "got {} states", report.states);
    }

    #[test]
    fn load_then_sub_leaks() {
        let cfg = RcConfig {
            clones: 0,
            variant: RcVariant::LoadThenSub,
        };
        let failure = explore_rc(&cfg).expect_err("must catch the leak");
        assert_eq!(failure.violation, RcViolation::Leak);
    }

    #[test]
    fn sub_then_load_double_frees() {
        let cfg = RcConfig {
            clones: 0,
            variant: RcVariant::SubThenLoad,
        };
        let failure = explore_rc(&cfg).expect_err("must catch the double free");
        assert!(
            matches!(failure.violation, RcViolation::DoubleFree { .. }),
            "expected DoubleFree, got {:?}",
            failure.violation
        );
        assert!(!failure.trace.is_empty(), "counterexample has a schedule");
    }

    #[test]
    fn sub_then_load_still_fails_with_clones() {
        let cfg = RcConfig {
            clones: 2,
            variant: RcVariant::SubThenLoad,
        };
        explore_rc(&cfg).expect_err("clones only widen the race window");
    }
}
