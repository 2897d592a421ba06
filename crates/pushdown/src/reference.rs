//! Host-side reference evaluator.
//!
//! Deliberately written *differently* from the hot-path interpreter in
//! [`crate::interp`] — recursion-free single function, direct indexing
//! (fine here: this is host-side test machinery, not under the hot-path
//! lint), explicit step-by-step fuel bookkeeping — so the equivalence
//! proptest in `lib.rs` compares two independent implementations of the
//! ISA semantics rather than one implementation with itself.

use crate::{Action, AluOp, CmpOp, ExecError, Insn, ScanOut, VerifiedProgram};

/// Evaluate one record and return `(verdict, fuel_consumed)`, or the
/// fuel consumed before exhaustion.
fn eval_record(
    insns: &[Insn],
    record: &[u8],
    index: u64,
    fuel_avail: u64,
) -> Result<(u64, u64), u64> {
    let mut regs = [0u64; crate::NUM_REGS];
    regs[0] = record.len() as u64;
    regs[1] = index;
    let mut pc = 0usize;
    let mut used = 0u64;
    while pc < insns.len() {
        if used == fuel_avail {
            return Err(used);
        }
        used += 1;
        let insn = insns[pc];
        pc += 1;
        match insn {
            Insn::LdImm { dst, imm } => regs[dst as usize] = imm,
            Insn::Mov { dst, src } => regs[dst as usize] = regs[src as usize],
            Insn::Ld { dst, off, width } => {
                let mut v = 0u64;
                // Byte-at-a-time little-endian assembly: structurally
                // unlike the interpreter's from_le_bytes path.
                for i in (0..width as usize).rev() {
                    v = (v << 8) | record[off as usize + i] as u64;
                }
                regs[dst as usize] = v;
            }
            Insn::Alu { op, dst, src } => {
                regs[dst as usize] = ref_alu(op, regs[dst as usize], regs[src as usize]);
            }
            Insn::AluImm { op, dst, imm } => {
                regs[dst as usize] = ref_alu(op, regs[dst as usize], imm);
            }
            Insn::Jmp { off } => pc += off as usize,
            Insn::JmpIf { cmp, a, b, off } => {
                if ref_cmp(cmp, regs[a as usize], regs[b as usize]) {
                    pc += off as usize;
                }
            }
            Insn::JmpIfImm { cmp, a, imm, off } => {
                if ref_cmp(cmp, regs[a as usize], imm) {
                    pc += off as usize;
                }
            }
            Insn::Ret { src } => return Ok((regs[src as usize], used)),
        }
    }
    Ok((0, used))
}

/// Reference scan over `data` with the program's full fuel budget.
/// Returns exactly what [`crate::scan`] produces (accumulated into a
/// fresh [`ScanOut`]) — including the out-of-fuel error and the partial
/// output's fuel accounting.
pub(crate) fn reference_scan(
    prog: &VerifiedProgram,
    data: &[u8],
    base_index: u64,
) -> Result<ScanOut, ExecError> {
    let rlen = prog.record_len();
    let mut out = ScanOut::default();
    let mut remaining = prog.fuel_budget();
    let n_whole = data.len() / rlen;
    for i in 0..n_whole {
        let off = i * rlen;
        let record = &data[off..off + rlen];
        match eval_record(prog.insns(), record, base_index + i as u64, remaining) {
            Ok((verdict, used)) => {
                remaining -= used;
                out.fuel_used += used;
                out.records += 1;
                if verdict != 0 {
                    out.matches += 1;
                    match prog.action() {
                        Action::Count => {}
                        Action::Sum => out.agg = out.agg.wrapping_add(verdict),
                        Action::Select => out.hits.push(off),
                    }
                }
            }
            Err(used) => {
                out.fuel_used += used;
                return Err(ExecError::OutOfFuel);
            }
        }
    }
    Ok(out)
}

fn ref_alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => a.checked_div(b).unwrap_or(0),
        AluOp::Rem => {
            if b == 0 {
                0
            } else {
                a % b
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl((b % 64) as u32),
        AluOp::Shr => a.wrapping_shr((b % 64) as u32),
    }
}

fn ref_cmp(cmp: CmpOp, a: u64, b: u64) -> bool {
    match cmp {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}
