//! The one exhaustive search in labcheck: a visited-set breadth-first
//! exploration of a `Model`'s reachable states.
//!
//! Every model checker in this crate is an `impl Model` — its state, its
//! step semantics, its invariants and its planted variants — and
//! `explore` is the only code that owns a queue, a visited set or a
//! parent map. Two schedules that reach the same joint state have the
//! same futures, so visiting each state once enumerates every
//! interleaving while staying tractable.
//!
//! What `explore` guarantees:
//!
//! - **Exhaustive**: every state reachable from `Model::init` is
//!   expanded exactly once (state types are finite, so there is no bound
//!   to configure).
//! - **Shortest counterexample**: states are expanded in breadth-first
//!   order and successors in the order the model pushes them, so the
//!   first violation found has a minimal-length trace, and the trace is
//!   reproducible as long as the model keeps its scheduler order.
//! - **Replayable trace**: `Failure::trace` holds the step labels from
//!   `init` to the violation, in order.
//!
//! Where each hook fires, per expanded state: `Model::invariant` first
//! (on `init` too), then the terminal test and `Model::check_terminal`,
//! then `Model::successors`, and `Model::stuck` if a non-terminal
//! state has none. `Model::never_terminated` is consulted once, after
//! the space is exhausted with zero terminal states.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;

/// A successor state and the label of the step that reaches it.
pub(crate) type Step<S> = (S, String);

/// A violation and the label of the step that commits (or exposes) it.
pub(crate) type Violating<V> = (V, String);

/// A finite-state protocol model: what [`explore`] searches.
pub(crate) trait Model {
    /// Joint state of the modeled system. `Copy` keeps expansion
    /// allocation-free; `Hash + Eq` is the visited-set identity.
    type State: Copy + Eq + Hash;
    /// What can go wrong.
    type Violation: fmt::Debug;

    /// The initial state. Called once per exploration, so a model may
    /// validate its configuration here.
    fn init(&self) -> Self::State;

    /// Invariant of every reachable state, `init` included. The label
    /// names the step that exposes the violation and ends the trace (the
    /// journal's "crash + recover").
    fn invariant(&self, _s: &Self::State) -> Result<(), Violating<Self::Violation>> {
        Ok(())
    }

    /// Whether every modeled thread has finished in `s`.
    fn is_terminal(&self, s: &Self::State) -> bool;

    /// Invariant of a terminal state (quiescence accounting).
    fn check_terminal(&self, _s: &Self::State) -> Result<(), Self::Violation> {
        Ok(())
    }

    /// Push every enabled step of the non-terminal state `s` onto `out`
    /// in the model's fixed scheduler order, or report the first step
    /// that commits a violation.
    fn successors(
        &self,
        s: &Self::State,
        out: &mut Vec<Step<Self::State>>,
    ) -> Result<(), Violating<Self::Violation>>;

    /// The violation a non-terminal state with no enabled step
    /// constitutes (deadlock, lost wakeup). Models whose threads never
    /// block keep the default: a dead end in them is a modeling error.
    fn stuck(&self, _s: &Self::State) -> Self::Violation {
        panic!("non-terminal state has no successor, but the model has no blocking steps")
    }

    /// The violation an exhausted state space with no terminal state
    /// constitutes (livelock), if the model treats it as one.
    fn never_terminated(&self) -> Option<Self::Violation> {
        None
    }
}

/// A violation plus the schedule that reaches it.
#[derive(Debug, Clone)]
pub(crate) struct Failure<V> {
    /// What went wrong.
    pub(crate) violation: V,
    /// Step labels from the initial state to the violating step.
    pub(crate) trace: Vec<String>,
}

impl<V: fmt::Debug> fmt::Display for Failure<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "violation: {:?}", self.violation)?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {step}", i + 1)?;
        }
        Ok(())
    }
}

/// Statistics from a completed exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Report {
    /// Distinct states reached (each had [`Model::invariant`] checked).
    pub(crate) states: usize,
    /// Scheduler transitions taken.
    pub(crate) transitions: usize,
    /// Distinct terminal states.
    pub(crate) terminals: usize,
}

/// Walk the parent map back from `at` to the initial state; `last` is
/// the violating step, when the violation is a step and not a state.
fn fail<S: Copy + Eq + Hash, V>(
    violation: V,
    at: S,
    last: Option<String>,
    reached: &HashMap<S, Option<Step<S>>>,
) -> Failure<V> {
    let mut trace: Vec<String> = last.into_iter().collect();
    let mut cur = at;
    while let Some(Some((prev, label))) = reached.get(&cur) {
        trace.push(label.clone());
        cur = *prev;
    }
    trace.reverse();
    Failure { violation, trace }
}

/// Exhaustively explore `model`. `Ok` carries statistics; `Err` carries
/// the first violation found plus a shortest schedule that reaches it.
pub(crate) fn explore<M: Model>(model: &M) -> Result<Report, Failure<M::Violation>> {
    let init = model.init();
    // Visited set and parent map in one: how each state was first reached.
    let mut reached: HashMap<M::State, Option<Step<M::State>>> = HashMap::new();
    let mut queue: VecDeque<M::State> = VecDeque::new();
    reached.insert(init, None);
    queue.push_back(init);
    let mut successors: Vec<Step<M::State>> = Vec::new();
    let mut transitions = 0usize;
    let mut terminals = 0usize;

    while let Some(state) = queue.pop_front() {
        if let Err((violation, label)) = model.invariant(&state) {
            return Err(fail(violation, state, Some(label), &reached));
        }
        if model.is_terminal(&state) {
            terminals += 1;
            if let Err(violation) = model.check_terminal(&state) {
                return Err(fail(violation, state, None, &reached));
            }
            continue;
        }
        if let Err((violation, label)) = model.successors(&state, &mut successors) {
            return Err(fail(violation, state, Some(label), &reached));
        }
        if successors.is_empty() {
            return Err(fail(model.stuck(&state), state, None, &reached));
        }
        for (next, label) in successors.drain(..) {
            transitions += 1;
            if let Entry::Vacant(slot) = reached.entry(next) {
                slot.insert(Some((state, label)));
                queue.push_back(next);
            }
        }
    }

    if terminals == 0 {
        if let Some(violation) = model.never_terminated() {
            return Err(Failure {
                violation,
                trace: Vec::new(),
            });
        }
    }
    Ok(Report {
        states: reached.len(),
        transitions,
        terminals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter that steps `+1` or `+2` from `start` and terminates on
    /// `goal`. Knobs turn individual hooks into violations.
    #[derive(Default)]
    struct Counter {
        start: u8,
        goal: u8,
        /// Stepping *onto* this value is a violating step.
        forbidden: Option<u8>,
        /// This value has no successor (and is not terminal).
        dead_end: Option<u8>,
        /// The per-state invariant rejects this value.
        bad_state: Option<u8>,
        /// Values wrap at this modulus (a cycle that may avoid `goal`).
        modulus: u8,
    }

    #[derive(Debug, PartialEq)]
    enum Oops {
        Forbidden(u8),
        Stuck(u8),
        BadState(u8),
        NeverDone,
    }

    impl Model for Counter {
        type State = u8;
        type Violation = Oops;

        fn init(&self) -> u8 {
            self.start
        }

        fn invariant(&self, s: &u8) -> Result<(), Violating<Oops>> {
            if self.bad_state == Some(*s) {
                return Err((Oops::BadState(*s), format!("inspect {s}")));
            }
            Ok(())
        }

        fn is_terminal(&self, s: &u8) -> bool {
            *s == self.goal
        }

        fn successors(&self, s: &u8, out: &mut Vec<Step<u8>>) -> Result<(), Violating<Oops>> {
            if self.dead_end == Some(*s) {
                return Ok(());
            }
            for inc in [1, 2] {
                let next = (s + inc) % self.modulus;
                if self.forbidden == Some(next) {
                    return Err((Oops::Forbidden(next), format!("+{inc} -> {next}")));
                }
                out.push((next, format!("+{inc} -> {next}")));
            }
            Ok(())
        }

        fn stuck(&self, s: &u8) -> Oops {
            Oops::Stuck(*s)
        }

        fn never_terminated(&self) -> Option<Oops> {
            Some(Oops::NeverDone)
        }
    }

    /// Apply a trace's `+n -> m` labels from `start`, checking each `m`.
    fn replay(start: u8, modulus: u8, trace: &[String]) -> u8 {
        trace.iter().fold(start, |at, label| {
            let (inc, to) = label.split_once(" -> ").expect("step label");
            let next = (at + inc[1..].parse::<u8>().expect("increment")) % modulus;
            assert_eq!(next.to_string(), to, "trace step `{label}` from {at}");
            next
        })
    }

    #[test]
    fn clean_model_reports_every_state_and_transition() {
        let model = Counter {
            goal: 4,
            modulus: 5,
            ..Counter::default()
        };
        // 0..=4 reached; 0,1,2,3 expand with two steps each; 4 terminal.
        assert_eq!(
            explore(&model).expect("no violation"),
            Report {
                states: 5,
                transitions: 8,
                terminals: 1
            }
        );
    }

    #[test]
    fn counterexample_is_shortest_and_replays_from_init() {
        // 6 is reachable in three steps (+2 +2 +2) and in up to six; the
        // trace must be a three-step one that really leads there.
        let model = Counter {
            goal: 9,
            forbidden: Some(6),
            modulus: 10,
            ..Counter::default()
        };
        let failure = explore(&model).expect_err("6 is reachable");
        assert_eq!(failure.violation, Oops::Forbidden(6));
        assert_eq!(failure.trace.len(), 3, "{failure}");
        assert_eq!(replay(0, 10, &failure.trace), 6);
        // The one Display: violation line, then numbered steps.
        assert_eq!(
            failure.to_string(),
            "violation: Forbidden(6)\n    1. +2 -> 2\n    2. +2 -> 4\n    3. +2 -> 6\n"
        );
    }

    #[test]
    fn dead_end_reaches_the_stuck_hook_with_the_path_to_it() {
        let model = Counter {
            goal: 9,
            dead_end: Some(3),
            modulus: 10,
            ..Counter::default()
        };
        let failure = explore(&model).expect_err("3 has no successor");
        assert_eq!(failure.violation, Oops::Stuck(3));
        assert_eq!(failure.trace.len(), 2, "{failure}");
        assert_eq!(replay(0, 10, &failure.trace), 3);
    }

    #[test]
    fn exhausted_space_without_a_terminal_reaches_never_terminated() {
        // Modulus 4 wraps before the goal: 0..=3 cycle forever.
        let model = Counter {
            goal: 7,
            modulus: 4,
            ..Counter::default()
        };
        let failure = explore(&model).expect_err("goal unreachable");
        assert_eq!(failure.violation, Oops::NeverDone);
        assert!(failure.trace.is_empty());
    }

    #[test]
    fn invariant_runs_on_init_itself() {
        let model = Counter {
            start: 2,
            goal: 9,
            bad_state: Some(2),
            modulus: 10,
            ..Counter::default()
        };
        let failure = explore(&model).expect_err("init violates the invariant");
        assert_eq!(failure.violation, Oops::BadState(2));
        assert_eq!(failure.trace, ["inspect 2"]);
    }

    #[test]
    fn invariant_runs_before_the_terminal_test() {
        let model = Counter {
            goal: 2,
            bad_state: Some(2),
            modulus: 10,
            ..Counter::default()
        };
        let failure = explore(&model).expect_err("the goal state itself is bad");
        assert_eq!(failure.violation, Oops::BadState(2));
        assert_eq!(failure.trace, ["+2 -> 2", "inspect 2"]);
    }
}
