//! Exhaustive model check for the pushdown execution model
//! (`labstor_pushdown`): **every verified program terminates within its
//! fuel budget, and every retired step is charged**.
//!
//! The real interpreter's safety argument has two independent legs:
//!
//! 1. **Forward-only jumps** — the verifier rejects negative offsets, so
//!    `pc` strictly increases and a program of `n` instructions retires
//!    at most `n` per record, fuel or no fuel.
//! 2. **Fuel charged before every instruction** — including taken
//!    branches, so `budget − fuel == steps` at all times and the tenant
//!    token bucket bills exactly what executed.
//!
//! This checker abstracts the ISA to the three shapes that matter for
//! control flow — fall-through, halt, and a *nondeterministic*
//! conditional branch — and explores both outcomes of every branch
//! (`explore::explore`). The model mirrors the shipped pipeline: a
//! verifier step first (`run` rejects backward offsets), then
//! exhaustive execution with two invariants checked on every
//! transition. Two planted bugs prove the checker has teeth:
//!
//! - `FuelVariant::BackwardJumpAccepted` — the verifier lets a
//!   negative offset through. A taken backward branch loops, `steps`
//!   exceeds the program length, and the forward-progress invariant
//!   (`FuelViolation::Runaway`) fires.
//! - `FuelVariant::FuelNotChargedOnTakenBranch` — the interpreter
//!   charges fall-throughs but skips the charge when a branch is taken
//!   (the classic "charge at the top of the loop, branch out the
//!   bottom" slip). The first taken branch desynchronizes `steps` from
//!   `budget − fuel` and `FuelViolation::FuelLeak` fires.

use crate::explore::{explore, Failure, Model, Report, Step, Violating};

/// Execution-model variant under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FuelVariant {
    /// The shipped pipeline: backward jumps rejected, every retired
    /// instruction (taken branches included) charged one fuel unit.
    Correct,
    /// Planted bug: the verifier accepts a negative branch offset, so a
    /// loop becomes expressible and forward progress is lost.
    BackwardJumpAccepted,
    /// Planted bug: taken branches retire without a fuel charge, so the
    /// tenant is under-billed and the budget no longer bounds work.
    FuelNotChargedOnTakenBranch,
}

/// Abstracted instruction: just the control-flow shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FuelInsn {
    /// Straight-line instruction (load/alu/mov): `pc + 1`.
    Fall,
    /// Conditional branch with a relative offset from the *next*
    /// instruction; the model explores both taken and untaken outcomes.
    Br(i8),
    /// Return: execution ends.
    Halt,
}

/// Model-checker configuration: a program, a fuel budget, a variant.
#[derive(Debug, Clone)]
pub(crate) struct FuelConfig {
    /// The abstracted program.
    pub(crate) program: Vec<FuelInsn>,
    /// Fuel budget for one execution.
    pub(crate) fuel: u8,
    /// Pipeline variant under test.
    pub(crate) variant: FuelVariant,
}

impl FuelConfig {
    /// The shipped pipeline over a given program and budget.
    #[cfg(test)]
    fn correct(program: Vec<FuelInsn>, fuel: u8) -> Self {
        FuelConfig {
            program,
            fuel,
            variant: FuelVariant::Correct,
        }
    }

    /// The verifier step: the shipped verifier rejects negative offsets
    /// before execution (a correct outcome for programs with backward
    /// jumps); the planted BackwardJumpAccepted bug waves them through.
    pub(crate) fn rejected(&self) -> bool {
        self.variant != FuelVariant::BackwardJumpAccepted
            && self
                .program
                .iter()
                .any(|insn| matches!(insn, FuelInsn::Br(off) if *off < 0))
    }

    fn len(&self) -> u8 {
        self.program.len() as u8
    }

    /// Retire one instruction from `s`: charge one fuel unit (unless
    /// `charge` is off — the planted bug), move to `pc`, and check both
    /// invariants on the resulting state.
    fn retire(
        &self,
        s: &State,
        pc: u8,
        charge: bool,
        what: &str,
    ) -> Result<Step<State>, Violating<FuelViolation>> {
        let n = State {
            pc,
            fuel: s.fuel - u8::from(charge),
            steps: s.steps.saturating_add(1),
        };
        let label = format!("pc {}: {what} (fuel -> {})", s.pc, n.fuel);
        if n.steps > self.len() {
            // Forward-only jumps bound retirement by program length.
            return Err((FuelViolation::Runaway { steps: n.steps }, label));
        }
        let charged = self.fuel - n.fuel;
        if charged != n.steps {
            let leak = FuelViolation::FuelLeak {
                steps: n.steps,
                charged,
            };
            return Err((leak, label));
        }
        Ok((n, label))
    }
}

/// Invariant violation detected on a transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FuelViolation {
    /// Forward progress lost: more instructions retired than the program
    /// has — only a backward jump can do that.
    Runaway {
        /// Instructions retired when the bound broke.
        steps: u8,
    },
    /// Fuel accounting desynchronized from retirement: `budget − fuel`
    /// no longer equals the instructions retired.
    FuelLeak {
        /// Instructions retired.
        steps: u8,
        /// Fuel units actually charged.
        charged: u8,
    },
}

/// One execution state. `charged` is tracked separately from `steps`
/// precisely so the two can disagree under the planted charging bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct State {
    /// Program counter.
    pc: u8,
    /// Fuel remaining.
    fuel: u8,
    /// Instructions retired.
    steps: u8,
}

/// Run the model verifier, then exhaustively explore every execution
/// (both outcomes of each branch). A rejected program executes nothing,
/// which the all-zero report says.
pub(crate) fn run(cfg: &FuelConfig) -> Result<Report, Failure<FuelViolation>> {
    if cfg.rejected() {
        return Ok(Report::default());
    }
    explore(cfg)
}

impl Model for FuelConfig {
    type State = State;
    type Violation = FuelViolation;

    fn init(&self) -> State {
        State {
            pc: 0,
            fuel: self.fuel,
            steps: 0,
        }
    }

    /// Graceful terminals: fell off the end / explicit halt parked at
    /// `pc == len`, or the fuel meter stopped the program mid-flight.
    fn is_terminal(&self, s: &State) -> bool {
        s.pc >= self.len() || s.fuel == 0
    }

    /// Scheduler order for a branch: untaken, then taken.
    fn successors(
        &self,
        s: &State,
        out: &mut Vec<Step<State>>,
    ) -> Result<(), Violating<FuelViolation>> {
        match self.program[s.pc as usize] {
            FuelInsn::Fall => out.push(self.retire(s, s.pc + 1, true, "fall")?),
            FuelInsn::Halt => out.push(self.retire(s, self.len(), true, "halt")?),
            FuelInsn::Br(off) => {
                out.push(self.retire(s, s.pc + 1, true, "branch untaken")?);
                // Taken: retire to the target. The planted charging bug
                // skips the fuel debit on exactly this edge.
                let target = i16::from(s.pc) + 1 + i16::from(off);
                let target = target.clamp(0, i16::from(self.len())) as u8;
                let charge = self.variant != FuelVariant::FuelNotChargedOnTakenBranch;
                out.push(self.retire(s, target, charge, &format!("branch taken -> {target}"))?);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use FuelInsn::{Br, Fall, Halt};

    // The gate table (`crate::gate`) runs and pins four correct shapes,
    // the verifier-rejected backward jump and both planted bugs.

    #[test]
    fn correct_programs_terminate_fully_charged() {
        let shapes: Vec<(Vec<FuelInsn>, u8)> = vec![
            (vec![Fall, Fall, Halt], 8),
            // The count_where skeleton shape: load, branch, two exits.
            (vec![Fall, Br(1), Halt, Fall, Halt], 8),
            // Forward branch chains.
            (vec![Br(2), Fall, Fall, Br(0), Halt], 16),
            // Tight fuel: runs out mid-flight, still graceful + charged.
            (vec![Fall, Fall, Fall, Fall, Halt], 2),
        ];
        for (program, fuel) in shapes {
            let cfg = FuelConfig::correct(program, fuel);
            let report = run(&cfg)
                .unwrap_or_else(|f| panic!("{:?} must verify-and-terminate: {f}", cfg.program));
            assert!(!cfg.rejected());
            assert!(report.terminals >= 1);
            assert!(report.states > 1);
        }
    }

    #[test]
    fn backward_jump_is_rejected_by_the_verifier() {
        let cfg = FuelConfig::correct(vec![Fall, Br(-2), Halt], 16);
        assert!(cfg.rejected(), "verifier must reject the negative offset");
        assert_eq!(run(&cfg).expect("rejection is the safe outcome").states, 0);
    }

    #[test]
    fn fuel_bug_still_caught_when_loop_also_possible() {
        // Both bugs planted at once: whichever invariant trips first
        // must still be caught (the checker is not order-sensitive).
        let failure = run(&FuelConfig {
            program: vec![Br(1), Fall, Halt],
            fuel: 4,
            variant: FuelVariant::FuelNotChargedOnTakenBranch,
        })
        .expect_err("must catch the leak");
        assert!(matches!(failure.violation, FuelViolation::FuelLeak { .. }));
    }
}
