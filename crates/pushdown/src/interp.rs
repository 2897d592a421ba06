//! Hot-path bytecode interpreter.
//!
//! This module runs inside kernel-side LabMods directly over BufferPool
//! handle slices, so it is governed by the labcheck hot-path policy:
//! no panics, no `unwrap`/`expect`, no indexing — every access goes
//! through `get`/`get_mut` with an explicit fallback. The verifier
//! guarantees those fallbacks are unreachable for a [`VerifiedProgram`]
//! (registers in range, loads in bounds, jumps forward), so the graceful
//! paths cost nothing but keep the policy machine-checkable.
//!
//! Fuel is threaded as `&mut u64` so a LabMod can run one scan across
//! many pages (LabFS walks a block at a time) against a single budget,
//! and is charged **before** each instruction executes — including taken
//! branches, the planted bug `mc_fuel` exists to catch.

use crate::{Action, AluOp, CmpOp, Insn, VerifiedProgram};

/// Why execution stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The fuel budget ran out mid-scan. The partial [`ScanOut`] is
    /// still valid for the records fully retired before exhaustion.
    OutOfFuel,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::OutOfFuel => write!(f, "fuel budget exhausted"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Accumulated scan results. One `ScanOut` can span multiple [`scan`]
/// calls (one per page) — counters accumulate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanOut {
    /// Records examined.
    pub records: u64,
    /// Records whose verdict was non-zero.
    pub matches: u64,
    /// Wrapping sum of verdicts ([`Action::Sum`]).
    pub agg: u64,
    /// Fuel consumed so far.
    pub(crate) fuel_used: u64,
    /// Byte offsets (within the scanned data of the *current* call) of
    /// matching records ([`Action::Select`] only).
    pub hits: Vec<usize>,
}

/// Execute the program over one record, returning its verdict. `fuel`
/// is decremented by one per retired instruction; exhaustion aborts
/// with [`ExecError::OutOfFuel`]. Falling off the end of the program
/// returns verdict 0 (no match).
pub(crate) fn run_record(
    insns: &[Insn],
    record: &[u8],
    index: u64,
    fuel: &mut u64,
) -> Result<u64, ExecError> {
    let mut regs = [0u64; crate::NUM_REGS];
    if let Some(r0) = regs.get_mut(0) {
        *r0 = record.len() as u64;
    }
    if let Some(r1) = regs.get_mut(1) {
        *r1 = index;
    }
    let mut pc: usize = 0;
    loop {
        let insn = match insns.get(pc) {
            Some(i) => *i,
            None => return Ok(0), // fell off the end: no match
        };
        // Charge fuel before executing — taken branches included.
        *fuel = fuel.checked_sub(1).ok_or(ExecError::OutOfFuel)?;
        pc += 1;
        match insn {
            Insn::LdImm { dst, imm } => set(&mut regs, dst, imm),
            Insn::Mov { dst, src } => {
                let v = get(&regs, src);
                set(&mut regs, dst, v);
            }
            Insn::Ld { dst, off, width } => {
                let v = load(record, off as usize, width as usize);
                set(&mut regs, dst, v);
            }
            Insn::Alu { op, dst, src } => {
                let v = alu(op, get(&regs, dst), get(&regs, src));
                set(&mut regs, dst, v);
            }
            Insn::AluImm { op, dst, imm } => {
                let v = alu(op, get(&regs, dst), imm);
                set(&mut regs, dst, v);
            }
            Insn::Jmp { off } => pc = jump(pc, off),
            Insn::JmpIf { cmp, a, b, off } => {
                if compare(cmp, get(&regs, a), get(&regs, b)) {
                    pc = jump(pc, off);
                }
            }
            Insn::JmpIfImm { cmp, a, imm, off } => {
                if compare(cmp, get(&regs, a), imm) {
                    pc = jump(pc, off);
                }
            }
            Insn::Ret { src } => return Ok(get(&regs, src)),
        }
    }
}

/// Scan `data` as a sequence of whole `record_len`-byte records (a
/// trailing partial record is ignored), accumulating into `out`.
/// `base_index` is the record index of `data`'s first record — LabFS
/// passes a running index so `r1` stays meaningful across pages. The
/// scan reads the data in place: zero payload copies.
pub fn scan(
    prog: &VerifiedProgram,
    data: &[u8],
    base_index: u64,
    fuel: &mut u64,
    out: &mut ScanOut,
) -> Result<(), ExecError> {
    let rlen = prog.record_len();
    let insns = prog.insns();
    let action = prog.action();
    let mut off = 0usize;
    let mut index = base_index;
    while let Some(record) = data.get(off..off + rlen) {
        let before = *fuel;
        let verdict = match run_record(insns, record, index, fuel) {
            Ok(v) => {
                out.fuel_used += before - *fuel;
                v
            }
            Err(e) => {
                out.fuel_used += before - *fuel;
                return Err(e);
            }
        };
        out.records += 1;
        if verdict != 0 {
            out.matches += 1;
            match action {
                Action::Count => {}
                Action::Sum => out.agg = out.agg.wrapping_add(verdict),
                Action::Select => out.hits.push(off),
            }
        }
        off += rlen;
        index += 1;
    }
    Ok(())
}

/// One-shot convenience: run a full scan with the program's own fuel
/// budget over a single contiguous buffer.
pub fn scan_all(prog: &VerifiedProgram, data: &[u8]) -> Result<ScanOut, ExecError> {
    let mut fuel = prog.fuel_budget();
    let mut out = ScanOut::default();
    scan(prog, data, 0, &mut fuel, &mut out)?;
    Ok(out)
}

/// The register file: sixteen u64s, fixed at [`crate::NUM_REGS`].
type Regs = [u64; crate::NUM_REGS];

#[inline]
fn get(regs: &Regs, r: u8) -> u64 {
    regs.get(r as usize).copied().unwrap_or(0)
}

#[inline]
fn set(regs: &mut Regs, r: u8, v: u64) {
    if let Some(slot) = regs.get_mut(r as usize) {
        *slot = v;
    }
}

/// Little-endian load, verifier-proven in bounds; the `unwrap_or(0)`
/// fallback keeps the path panic-free regardless.
#[inline]
fn load(record: &[u8], off: usize, width: usize) -> u64 {
    record
        .get(off..off + width)
        .map(|bytes| {
            let mut buf = [0u8; 8];
            if let Some(dst) = buf.get_mut(..width) {
                dst.copy_from_slice(bytes);
            }
            u64::from_le_bytes(buf)
        })
        .unwrap_or(0)
}

#[inline]
fn jump(next_pc: usize, off: i16) -> usize {
    // Verifier guarantees off >= 0 and the target in range.
    next_pc.saturating_add(off.max(0) as usize)
}

#[inline]
fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => a.checked_div(b).unwrap_or(0),
        AluOp::Rem => a.checked_rem(b).unwrap_or(0),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl((b & 63) as u32),
        AluOp::Shr => a.wrapping_shr((b & 63) as u32),
    }
}

#[inline]
fn compare(cmp: CmpOp, a: u64, b: u64) -> bool {
    match cmp {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}
