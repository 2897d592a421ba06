//! Deterministic interleaving model checker for the lock-witness
//! acquire/release state machine.
//!
//! The runtime lock witness (`labstor_ipc::lockwitness`) enforces, per
//! thread, the registry discipline from DESIGN.md §7: classes are
//! acquired in ascending rank, a non-reentrant class is never acquired
//! while held (not even a different instance), and a `nest_within` class
//! (the ShMem chunk sweep) may stack only in ascending instance order.
//! This checker exercises those rules against exhaustive two-thread
//! interleavings (`explore::explore`) of small lock programs:
//!
//! - `LockVariant::CorrectChunks` — the multi-chunk ShMem access: both
//!   threads sweep chunk 0 → chunk 1 ascending. Passes.
//! - `LockVariant::ReentrantShard` — a thread re-acquires a
//!   non-reentrant lock it already holds. The witness rule catches it as
//!   a self-deadlock on every schedule.
//! - `LockVariant::DescendingChunks` — the old descending chunk sweep: one
//!   thread locks chunk 1 → chunk 0. Instance order inverts (and the
//!   ABBA deadlock exists); the witness flags the descending acquire.
//!
//! A deadlocked schedule (every unfinished thread blocked) is kept as a
//! backstop violation, so the checker stays sound even for bugs the
//! witness rules would miss.
//!
//! All three variants are rows of the gate table ([`crate::gate()`]), which
//! pins each correct protocol's state count and each planted bug's exact
//! violation and counterexample length.

use crate::explore::{Model, Step as Succ, Violating};

/// One lock instance in the model: registry class plus instance index.
#[derive(Debug, Clone, Copy)]
struct LockSpec {
    name: &'static str,
    rank: u16,
    /// Instance index within the class (the address order the runtime
    /// witness compares for `nest_within` classes).
    instance: u8,
    nest_within: bool,
}

/// One atomic step of a thread's lock program.
#[derive(Debug, Clone, Copy)]
enum Step {
    Acq(usize),
    Rel(usize),
}

/// Lock protocol under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LockVariant {
    /// The fixed ShMem span access: chunks acquired ascending up front.
    CorrectChunks,
    /// Planted bug: re-acquire a held non-reentrant lock (the only
    /// [`LockViolation::SelfDeadlock`] row).
    ReentrantShard,
    /// Planted bug: one thread sweeps chunks in descending order.
    DescendingChunks,
}

/// Discipline violation detected mid-exploration or at quiescence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LockViolation {
    /// A thread acquired a lock it already holds (non-reentrant mutex:
    /// guaranteed deadlock).
    SelfDeadlock {
        /// The acquiring thread.
        thread: usize,
        /// The re-acquired lock.
        lock: &'static str,
    },
    /// An acquisition inverted the declared class/instance order.
    OrderViolation {
        /// The acquiring thread.
        thread: usize,
        /// A lock it holds that outranks the new one.
        held: &'static str,
        /// The out-of-order acquisition.
        acquiring: &'static str,
    },
    /// Every unfinished thread is blocked on a held lock.
    Deadlock,
    /// A thread finished its program still holding a lock.
    HeldAtExit {
        /// The finishing thread.
        thread: usize,
        /// The lock never released.
        lock: &'static str,
    },
}

const FREE: u8 = u8::MAX;
const MAX_LOCKS: usize = 2;

/// Joint state: lock owners (thread id or [`FREE`]) and per-thread pc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct State {
    owners: [u8; MAX_LOCKS],
    pcs: [u8; 2],
}

/// The lock set and the two thread programs of a variant. The model's
/// lock classes mirror the workspace registry: `pagecache.shard` rank 70
/// (non-reentrant), `shmem.chunk` rank 78 (`nest_within`).
fn programs(variant: LockVariant) -> (Vec<LockSpec>, [Vec<Step>; 2]) {
    let shard = |i: u8| LockSpec {
        name: if i == 0 {
            "pagecache.shard#0"
        } else {
            "pagecache.shard#1"
        },
        rank: 70,
        instance: i,
        nest_within: false,
    };
    let chunk = |i: u8| LockSpec {
        name: if i == 0 {
            "shmem.chunk#0"
        } else {
            "shmem.chunk#1"
        },
        rank: 78,
        instance: i,
        nest_within: true,
    };
    use Step::{Acq, Rel};
    match variant {
        // Locks: [chunk0, chunk1]. Both threads sweep a two-chunk span in
        // ascending order — the fixed ShMem protocol.
        LockVariant::CorrectChunks => (
            vec![chunk(0), chunk(1)],
            [
                vec![Acq(0), Acq(1), Rel(1), Rel(0)],
                vec![Acq(0), Acq(1), Rel(1), Rel(0)],
            ],
        ),
        // Thread 0 re-locks the lock it holds.
        LockVariant::ReentrantShard => (
            vec![shard(0), shard(1)],
            [vec![Acq(0), Acq(0), Rel(0), Rel(0)], vec![Acq(1), Rel(1)]],
        ),
        // Thread 1 sweeps the same span descending: ABBA with thread 0.
        LockVariant::DescendingChunks => (
            vec![chunk(0), chunk(1)],
            [
                vec![Acq(0), Acq(1), Rel(1), Rel(0)],
                vec![Acq(1), Acq(0), Rel(0), Rel(1)],
            ],
        ),
    }
}

/// The model of one protocol: its lock set and the two thread programs.
#[derive(Debug, Clone)]
pub(crate) struct LockModel {
    locks: Vec<LockSpec>,
    progs: [Vec<Step>; 2],
}

impl LockModel {
    /// The model of `variant` (the variant fixes both threads' programs).
    pub(crate) fn new(variant: LockVariant) -> LockModel {
        let (locks, progs) = programs(variant);
        assert!(locks.len() <= MAX_LOCKS);
        LockModel { locks, progs }
    }

    /// Thread `tid`'s next step, or `None` once its program has finished.
    fn next_step(&self, s: &State, tid: usize) -> Option<Step> {
        self.progs[tid].get(s.pcs[tid] as usize).copied()
    }
}

impl Model for LockModel {
    type State = State;
    type Violation = LockViolation;

    fn init(&self) -> State {
        State {
            owners: [FREE; MAX_LOCKS],
            pcs: [0; 2],
        }
    }

    fn is_terminal(&self, s: &State) -> bool {
        (0..2).all(|tid| self.next_step(s, tid).is_none())
    }

    fn check_terminal(&self, s: &State) -> Result<(), LockViolation> {
        match s.owners.iter().position(|&owner| owner != FREE) {
            Some(li) => Err(LockViolation::HeldAtExit {
                thread: s.owners[li] as usize,
                lock: self.locks[li].name,
            }),
            None => Ok(()),
        }
    }

    /// Scheduler order: thread 0's step, then thread 1's. A thread
    /// blocked on a held lock contributes no step.
    fn successors(
        &self,
        s: &State,
        out: &mut Vec<Succ<State>>,
    ) -> Result<(), Violating<LockViolation>> {
        for tid in 0..2 {
            let Some(step) = self.next_step(s, tid) else {
                continue;
            };
            let mut n = *s;
            n.pcs[tid] += 1;
            match step {
                Step::Acq(li) => {
                    let lock = self.locks[li];
                    // Witness checks run BEFORE blocking (the runtime
                    // witness panics instead of deadlocking).
                    for (hi, &owner) in s.owners.iter().enumerate() {
                        if owner != tid as u8 {
                            continue;
                        }
                        let held = self.locks[hi];
                        if hi == li {
                            return Err((
                                LockViolation::SelfDeadlock {
                                    thread: tid,
                                    lock: lock.name,
                                },
                                format!("t{tid}: acquire {} (held)", lock.name),
                            ));
                        }
                        let ok = if held.rank == lock.rank {
                            held.nest_within && lock.nest_within && lock.instance > held.instance
                        } else {
                            lock.rank > held.rank
                        };
                        if !ok {
                            return Err((
                                LockViolation::OrderViolation {
                                    thread: tid,
                                    held: held.name,
                                    acquiring: lock.name,
                                },
                                format!(
                                    "t{tid}: acquire {} while holding {}",
                                    lock.name, held.name
                                ),
                            ));
                        }
                    }
                    if s.owners[li] != FREE {
                        continue; // blocked on the other thread
                    }
                    n.owners[li] = tid as u8;
                    out.push((n, format!("t{tid}: acquire {}", lock.name)));
                }
                Step::Rel(li) => {
                    debug_assert_eq!(s.owners[li], tid as u8, "release of unheld lock");
                    n.owners[li] = FREE;
                    out.push((n, format!("t{tid}: release {}", self.locks[li].name)));
                }
            }
        }
        Ok(())
    }

    /// Every unfinished thread is blocked on a held lock.
    fn stuck(&self, _s: &State) -> LockViolation {
        LockViolation::Deadlock
    }
}
