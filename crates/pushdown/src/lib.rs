#![warn(missing_docs)]

//! # labstor-pushdown — verified, fuel-bounded bytecode for in-stack filters
//!
//! The zero-copy path (DESIGN.md §8) ships a read hit as a 256 KiB handle
//! that the client then scans — selective workloads still pay full IPC and
//! a client-side walk per page. This crate moves the walk to where the
//! data lives: a client attaches a small **register bytecode program** to
//! a request, the kernel-side LabMod (LabFS, LabKVS) runs it directly over
//! BufferPool handle slices, and only the *result* — a count, a sum, or
//! the matching records — rides back, usually inline in the response
//! envelope ("BPF for storage", PAPERS.md).
//!
//! The execution model is deliberately exokernel-shaped:
//!
//! * **Static verification** ([`Program::verify`]): programs are checked
//!   once, before they touch the stack. Registers in range, loads
//!   bounds-checked against the declared record length at verify time
//!   (no dynamic bases — every load offset is static), jumps
//!   **forward-only**, fuel budget sane. A [`VerifiedProgram`] is only
//!   constructible through the verifier, so kernel-side LabMods accept it
//!   on the type level without re-checking.
//! * **Termination by construction**: forward-only jumps mean a program
//!   of `n` instructions retires at most `n` per record; the fuel meter
//!   bounds the whole scan. `mc_fuel` in labcheck model-checks exactly
//!   this invariant pair (plus the planted bugs that break it).
//! * **Fuel = virtual time**: every retired instruction costs one fuel
//!   unit; the executing LabMod advances its virtual clock by
//!   [`FUEL_NS`] per unit and debits the requesting tenant's token
//!   bucket, so a hostile program cannot starve neighbors.
//!
//! The hot-path interpreter lives in [`interp`] and is governed by the
//! labcheck hot-path policy: no panics, no indexing, no payload copies.
//! `reference` (test-only) is an intentionally independent evaluator
//! used by the equivalence proptest.

pub mod interp;
#[cfg(test)]
mod reference;

pub use interp::{scan, ScanOut};

/// Number of general-purpose registers.
pub(crate) const NUM_REGS: usize = 16;
/// Maximum program length in instructions.
pub(crate) const MAX_INSNS: usize = 256;
/// Maximum fuel budget a program may declare (≈2 ms of virtual time).
pub(crate) const MAX_FUEL: u64 = 1 << 20;
/// Maximum record length a program may declare.
pub(crate) const MAX_RECORD_LEN: usize = 1 << 16;
/// Virtual nanoseconds charged per fuel unit (one retired instruction —
/// a couple of dispatch-loop steps on the paper's 2.3 GHz testbed).
pub const FUEL_NS: u64 = 2;
/// Encoded instruction size in bytes (see [`Program::encode`]).
pub(crate) const ENCODED_INSN_LEN: usize = 16;

/// Arithmetic/logic operations. All arithmetic wraps; division and
/// remainder by zero produce 0 (no trapping paths — the interpreter must
/// not panic); shifts mask the amount to 0..64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (x / 0 = 0).
    Div,
    /// Remainder (x % 0 = 0).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (amount masked to 0..64).
    Shl,
    /// Logical right shift (amount masked to 0..64).
    Shr,
}

/// Unsigned comparison operators for conditional jumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// One bytecode instruction.
///
/// Register convention per record: `r0` = record length in bytes, `r1` =
/// record index within the scan, all other registers zero. The value a
/// record "returns" (via [`Insn::Ret`], or 0 when execution falls off the
/// end) is its verdict: non-zero means the record matches.
///
/// Jump offsets are relative to the *next* instruction (`off = 0` is a
/// fall-through). Offsets are encodable as negative — the verifier is
/// what rejects backward jumps, which is exactly the planted-bug surface
/// `mc_fuel` checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `dst = imm`.
    LdImm {
        /// Destination register.
        dst: u8,
        /// Immediate value.
        imm: u64,
    },
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// Little-endian load of `width` ∈ {1, 2, 4, 8} bytes from the
    /// record at static byte offset `off`. The verifier proves
    /// `off + width <= record_len`, so the interpreter never bounds-fails.
    Ld {
        /// Destination register.
        dst: u8,
        /// Static byte offset within the record.
        off: u16,
        /// Load width in bytes (1, 2, 4 or 8).
        width: u8,
    },
    /// `dst = dst <op> src`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination (and left operand) register.
        dst: u8,
        /// Right operand register.
        src: u8,
    },
    /// `dst = dst <op> imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination (and left operand) register.
        dst: u8,
        /// Right operand immediate.
        imm: u64,
    },
    /// Unconditional relative jump (forward-only after verification).
    Jmp {
        /// Offset from the next instruction.
        off: i16,
    },
    /// Jump if `a <cmp> b`.
    JmpIf {
        /// Comparison.
        cmp: CmpOp,
        /// Left operand register.
        a: u8,
        /// Right operand register.
        b: u8,
        /// Offset from the next instruction.
        off: i16,
    },
    /// Jump if `a <cmp> imm`.
    JmpIfImm {
        /// Comparison.
        cmp: CmpOp,
        /// Left operand register.
        a: u8,
        /// Right operand immediate.
        imm: u64,
        /// Offset from the next instruction.
        off: i16,
    },
    /// Return the value of `src` as the record's verdict.
    Ret {
        /// Register holding the verdict.
        src: u8,
    },
}

/// What the executing LabMod does with matching records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Count matching records; the reply is an [`AggReply`].
    Count,
    /// Sum the (non-zero) verdicts of matching records; the reply is an
    /// [`AggReply`] whose `agg` field carries the wrapping sum.
    Sum,
    /// Ship the matching records themselves (or, for a KVS scan, the
    /// matching keys).
    Select,
}

/// An unverified program: instructions plus the execution contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The instruction sequence.
    pub(crate) insns: Vec<Insn>,
    /// Record length in bytes; every load is bounds-checked against it
    /// at verify time.
    pub(crate) record_len: usize,
    /// What to do with matching records.
    pub(crate) action: Action,
    /// Fuel budget for the whole scan (1 fuel = 1 retired instruction).
    pub(crate) fuel_budget: u64,
}

/// Why the verifier rejected a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The program has no instructions.
    Empty,
    /// More than `MAX_INSNS` instructions.
    TooLong {
        /// Actual length.
        len: usize,
    },
    /// `record_len` is zero or exceeds `MAX_RECORD_LEN`.
    BadRecordLen {
        /// Declared record length.
        record_len: usize,
    },
    /// A register operand is out of range.
    BadRegister {
        /// Instruction index.
        pc: usize,
        /// Offending register number.
        reg: u8,
    },
    /// A load width other than 1, 2, 4 or 8.
    BadWidth {
        /// Instruction index.
        pc: usize,
        /// Offending width.
        width: u8,
    },
    /// A load past the end of the record (`off + width > record_len`).
    OobLoad {
        /// Instruction index.
        pc: usize,
        /// Static offset.
        off: u16,
        /// Load width.
        width: u8,
        /// Declared record length.
        record_len: usize,
    },
    /// A jump with a negative offset — the loop-former the forward-only
    /// rule exists to forbid.
    BackwardJump {
        /// Instruction index.
        pc: usize,
        /// Offending offset.
        off: i16,
    },
    /// A jump past the end of the program (target == len is the normal
    /// exit and allowed).
    JumpOutOfRange {
        /// Instruction index.
        pc: usize,
        /// Computed target.
        target: usize,
    },
    /// Fuel budget zero, above `MAX_FUEL`, or below the program length
    /// (too small to retire even one record's worst case).
    FuelOverflow {
        /// Declared budget.
        fuel: u64,
    },
    /// Decoding: an opcode byte the ISA does not define.
    UnknownOpcode {
        /// Instruction index.
        pc: usize,
        /// The opcode byte.
        byte: u8,
    },
    /// Decoding: an operand field outside its domain (ALU/compare code,
    /// oversized load offset).
    BadOperand {
        /// Instruction index.
        pc: usize,
    },
    /// Decoding: the byte stream is not a whole number of instructions.
    Truncated,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Empty => write!(f, "empty program"),
            VerifyError::TooLong { len } => write!(f, "{len} instructions exceeds {MAX_INSNS}"),
            VerifyError::BadRecordLen { record_len } => {
                write!(f, "record length {record_len} out of range")
            }
            VerifyError::BadRegister { pc, reg } => write!(f, "insn {pc}: register r{reg} >= 16"),
            VerifyError::BadWidth { pc, width } => write!(f, "insn {pc}: load width {width}"),
            VerifyError::OobLoad {
                pc,
                off,
                width,
                record_len,
            } => write!(
                f,
                "insn {pc}: load of {width} bytes at offset {off} overruns {record_len}-byte record"
            ),
            VerifyError::BackwardJump { pc, off } => {
                write!(f, "insn {pc}: backward jump (offset {off})")
            }
            VerifyError::JumpOutOfRange { pc, target } => {
                write!(f, "insn {pc}: jump target {target} out of range")
            }
            VerifyError::FuelOverflow { fuel } => write!(f, "fuel budget {fuel} out of range"),
            VerifyError::UnknownOpcode { pc, byte } => {
                write!(f, "insn {pc}: unknown opcode {byte:#x}")
            }
            VerifyError::BadOperand { pc } => write!(f, "insn {pc}: operand out of domain"),
            VerifyError::Truncated => write!(f, "truncated instruction stream"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// A program that passed [`Program::verify`]. The inner program is
/// private: the only way to obtain one is through the verifier, so
/// kernel-side LabMods can trust it on the type level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedProgram(Program);

impl VerifiedProgram {
    /// The verified instruction sequence.
    pub(crate) fn insns(&self) -> &[Insn] {
        &self.0.insns
    }

    /// Declared record length in bytes.
    pub fn record_len(&self) -> usize {
        self.0.record_len
    }

    /// What to do with matching records.
    pub fn action(&self) -> Action {
        self.0.action
    }

    /// Fuel budget for the whole scan.
    pub fn fuel_budget(&self) -> u64 {
        self.0.fuel_budget
    }
}

impl Program {
    /// Build an unverified program.
    pub fn new(insns: Vec<Insn>, record_len: usize, action: Action, fuel_budget: u64) -> Program {
        Program {
            insns,
            record_len,
            action,
            fuel_budget,
        }
    }

    /// Statically verify the program. This is the trust boundary: every
    /// rule here is what lets the interpreter run panic-free over
    /// kernel-side buffer slices with no per-instruction bounds checks
    /// beyond the fuel meter.
    pub fn verify(self) -> Result<VerifiedProgram, VerifyError> {
        let len = self.insns.len();
        if len == 0 {
            return Err(VerifyError::Empty);
        }
        if len > MAX_INSNS {
            return Err(VerifyError::TooLong { len });
        }
        if self.record_len == 0 || self.record_len > MAX_RECORD_LEN {
            return Err(VerifyError::BadRecordLen {
                record_len: self.record_len,
            });
        }
        if self.fuel_budget == 0 || self.fuel_budget > MAX_FUEL || self.fuel_budget < len as u64 {
            return Err(VerifyError::FuelOverflow {
                fuel: self.fuel_budget,
            });
        }
        let reg = |pc: usize, r: u8| -> Result<(), VerifyError> {
            if (r as usize) < NUM_REGS {
                Ok(())
            } else {
                Err(VerifyError::BadRegister { pc, reg: r })
            }
        };
        let jump = |pc: usize, off: i16| -> Result<(), VerifyError> {
            if off < 0 {
                return Err(VerifyError::BackwardJump { pc, off });
            }
            let target = pc + 1 + off as usize;
            if target > len {
                return Err(VerifyError::JumpOutOfRange { pc, target });
            }
            Ok(())
        };
        for (pc, insn) in self.insns.iter().enumerate() {
            match *insn {
                Insn::LdImm { dst, .. } => reg(pc, dst)?,
                Insn::Mov { dst, src } => {
                    reg(pc, dst)?;
                    reg(pc, src)?;
                }
                Insn::Ld { dst, off, width } => {
                    reg(pc, dst)?;
                    if !matches!(width, 1 | 2 | 4 | 8) {
                        return Err(VerifyError::BadWidth { pc, width });
                    }
                    if off as usize + width as usize > self.record_len {
                        return Err(VerifyError::OobLoad {
                            pc,
                            off,
                            width,
                            record_len: self.record_len,
                        });
                    }
                }
                Insn::Alu { dst, src, .. } => {
                    reg(pc, dst)?;
                    reg(pc, src)?;
                }
                Insn::AluImm { dst, .. } => reg(pc, dst)?,
                Insn::Jmp { off } => jump(pc, off)?,
                Insn::JmpIf { a, b, off, .. } => {
                    reg(pc, a)?;
                    reg(pc, b)?;
                    jump(pc, off)?;
                }
                Insn::JmpIfImm { a, off, .. } => {
                    reg(pc, a)?;
                    jump(pc, off)?;
                }
                Insn::Ret { src } => reg(pc, src)?,
            }
        }
        Ok(VerifiedProgram(self))
    }

    /// Serialize the instruction stream to the 16-byte-per-instruction
    /// wire format: `[op, a, b, c, off:i16 LE, pad:u16, imm:u64 LE]`.
    /// This is the attachment format envelopes would carry across a real
    /// shared-memory boundary; in-process requests carry the decoded
    /// [`VerifiedProgram`] by `Arc`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.insns.len() * ENCODED_INSN_LEN);
        for insn in &self.insns {
            let (op, a, b, c, off, imm): (u8, u8, u8, u8, i16, u64) = match *insn {
                Insn::LdImm { dst, imm } => (1, dst, 0, 0, 0, imm),
                Insn::Mov { dst, src } => (2, dst, src, 0, 0, 0),
                Insn::Ld { dst, off, width } => (3, dst, width, 0, 0, off as u64),
                Insn::Alu { op, dst, src } => (4, alu_code(op), dst, src, 0, 0),
                Insn::AluImm { op, dst, imm } => (5, alu_code(op), dst, 0, 0, imm),
                Insn::Jmp { off } => (6, 0, 0, 0, off, 0),
                Insn::JmpIf { cmp, a, b, off } => (7, cmp_code(cmp), a, b, off, 0),
                Insn::JmpIfImm { cmp, a, imm, off } => (8, cmp_code(cmp), a, 0, off, imm),
                Insn::Ret { src } => (9, src, 0, 0, 0, 0),
            };
            out.push(op);
            out.push(a);
            out.push(b);
            out.push(c);
            out.extend_from_slice(&off.to_le_bytes());
            out.extend_from_slice(&[0u8, 0u8]);
            out.extend_from_slice(&imm.to_le_bytes());
        }
        out
    }

    /// Decode an instruction stream produced by [`Program::encode`].
    /// Rejects unknown opcodes, out-of-domain operands, and truncated
    /// streams — the decode half of the verifier's rejection corpus.
    pub fn decode(bytes: &[u8]) -> Result<Vec<Insn>, VerifyError> {
        if !bytes.len().is_multiple_of(ENCODED_INSN_LEN) {
            return Err(VerifyError::Truncated);
        }
        let mut insns = Vec::with_capacity(bytes.len() / ENCODED_INSN_LEN);
        for (pc, chunk) in bytes.chunks_exact(ENCODED_INSN_LEN).enumerate() {
            let take_i16 = |lo: usize| -> i16 {
                let mut b = [0u8; 2];
                b.copy_from_slice(&chunk[lo..lo + 2]);
                i16::from_le_bytes(b)
            };
            let take_u64 = |lo: usize| -> u64 {
                let mut b = [0u8; 8];
                b.copy_from_slice(&chunk[lo..lo + 8]);
                u64::from_le_bytes(b)
            };
            let (op, a, b, c) = (chunk[0], chunk[1], chunk[2], chunk[3]);
            let off = take_i16(4);
            let imm = take_u64(8);
            let insn = match op {
                1 => Insn::LdImm { dst: a, imm },
                2 => Insn::Mov { dst: a, src: b },
                3 => {
                    if imm > u16::MAX as u64 {
                        return Err(VerifyError::BadOperand { pc });
                    }
                    Insn::Ld {
                        dst: a,
                        off: imm as u16,
                        width: b,
                    }
                }
                4 => Insn::Alu {
                    op: alu_from(a).ok_or(VerifyError::BadOperand { pc })?,
                    dst: b,
                    src: c,
                },
                5 => Insn::AluImm {
                    op: alu_from(a).ok_or(VerifyError::BadOperand { pc })?,
                    dst: b,
                    imm,
                },
                6 => Insn::Jmp { off },
                7 => Insn::JmpIf {
                    cmp: cmp_from(a).ok_or(VerifyError::BadOperand { pc })?,
                    a: b,
                    b: c,
                    off,
                },
                8 => Insn::JmpIfImm {
                    cmp: cmp_from(a).ok_or(VerifyError::BadOperand { pc })?,
                    a: b,
                    imm,
                    off,
                },
                9 => Insn::Ret { src: a },
                byte => return Err(VerifyError::UnknownOpcode { pc, byte }),
            };
            insns.push(insn);
        }
        Ok(insns)
    }

    // ---- common query shapes ------------------------------------------------

    /// Predicate skeleton: match records whose little-endian `u32` field
    /// at byte `off` equals `value`.
    ///
    /// ```text
    /// 0: r2 = load32 [off]
    /// 1: if r2 == value jump +1   ; match path
    /// 2: ret r3                   ; r3 = 0: no match
    /// 3: r3 = <verdict>
    /// 4: ret r3
    /// ```
    fn u32_eq_skeleton(record_len: usize, off: u16, value: u32, verdict: Vec<Insn>) -> Program {
        let mut insns = vec![
            Insn::Ld {
                dst: 2,
                off,
                width: 4,
            },
            Insn::JmpIfImm {
                cmp: CmpOp::Eq,
                a: 2,
                imm: value as u64,
                off: 1,
            },
            Insn::Ret { src: 3 },
        ];
        insns.extend(verdict);
        Program::new(insns, record_len, Action::Count, MAX_FUEL)
    }

    /// Count records whose `u32` field at `off` equals `value`.
    pub fn count_where_u32_eq(record_len: usize, off: u16, value: u32) -> Program {
        let mut p = Self::u32_eq_skeleton(
            record_len,
            off,
            value,
            vec![Insn::LdImm { dst: 3, imm: 1 }, Insn::Ret { src: 3 }],
        );
        p.action = Action::Count;
        p
    }

    /// Sum the little-endian `u64` field at `sum_off` over records whose
    /// `u32` field at `key_off` equals `value`.
    // api-ok: tests/pushdown_path.rs pushes a sum down through LabFS
    pub fn sum_u64_where_u32_eq(
        record_len: usize,
        sum_off: u16,
        key_off: u16,
        value: u32,
    ) -> Program {
        let mut p = Self::u32_eq_skeleton(
            record_len,
            key_off,
            value,
            vec![
                Insn::Ld {
                    dst: 3,
                    off: sum_off,
                    width: 8,
                },
                Insn::Ret { src: 3 },
            ],
        );
        p.action = Action::Sum;
        p
    }

    /// Select (ship back) records whose `u32` field at `off` equals
    /// `value`.
    pub fn select_where_u32_eq(record_len: usize, off: u16, value: u32) -> Program {
        let mut p = Self::count_where_u32_eq(record_len, off, value);
        p.action = Action::Select;
        p
    }

    /// Replace the fuel budget (builders default to `MAX_FUEL`).
    // api-ok: tests/pushdown_path.rs runs a program out of fuel in-stack
    pub fn with_fuel(mut self, fuel: u64) -> Program {
        self.fuel_budget = fuel;
        self
    }
}

fn alu_code(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Mul => 2,
        AluOp::Div => 3,
        AluOp::Rem => 4,
        AluOp::And => 5,
        AluOp::Or => 6,
        AluOp::Xor => 7,
        AluOp::Shl => 8,
        AluOp::Shr => 9,
    }
}

fn alu_from(code: u8) -> Option<AluOp> {
    Some(match code {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::Mul,
        3 => AluOp::Div,
        4 => AluOp::Rem,
        5 => AluOp::And,
        6 => AluOp::Or,
        7 => AluOp::Xor,
        8 => AluOp::Shl,
        9 => AluOp::Shr,
        _ => return None,
    })
}

fn cmp_code(cmp: CmpOp) -> u8 {
    match cmp {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_from(code: u8) -> Option<CmpOp> {
    Some(match code {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        _ => return None,
    })
}

/// Aggregate reply for [`Action::Count`] / [`Action::Sum`] scans: 32
/// bytes, small enough to ride inline in the response envelope (the
/// satellite inline-payload path) instead of a BufferPool round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AggReply {
    /// Records examined.
    pub records: u64,
    /// Records whose verdict was non-zero.
    pub matches: u64,
    /// Wrapping sum of verdicts ([`Action::Sum`] only; 0 otherwise).
    pub agg: u64,
    /// Fuel actually consumed by the scan.
    pub fuel_used: u64,
}

impl AggReply {
    /// Encoded size in bytes.
    pub const LEN: usize = 32;

    /// Little-endian fixed encoding.
    pub fn encode(&self) -> [u8; AggReply::LEN] {
        let mut out = [0u8; AggReply::LEN];
        out[0..8].copy_from_slice(&self.records.to_le_bytes());
        out[8..16].copy_from_slice(&self.matches.to_le_bytes());
        out[16..24].copy_from_slice(&self.agg.to_le_bytes());
        out[24..32].copy_from_slice(&self.fuel_used.to_le_bytes());
        out
    }

    /// Decode an [`AggReply::encode`] image.
    pub fn decode(bytes: &[u8]) -> Option<AggReply> {
        if bytes.len() != AggReply::LEN {
            return None;
        }
        let word = |lo: usize| -> u64 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[lo..lo + 8]);
            u64::from_le_bytes(b)
        };
        Some(AggReply {
            records: word(0),
            matches: word(8),
            agg: word(16),
            fuel_used: word(24),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::ExecError;
    use crate::reference::reference_scan;
    use proptest::prelude::*;

    fn verified(p: Program) -> VerifiedProgram {
        p.verify().expect("program verifies")
    }

    // ---- rejection corpus --------------------------------------------------

    #[test]
    fn rejects_empty_program() {
        let p = Program::new(vec![], 64, Action::Count, 16);
        assert_eq!(p.verify().unwrap_err(), VerifyError::Empty);
    }

    #[test]
    fn rejects_out_of_bounds_load() {
        // 4-byte load at offset 62 of a 64-byte record: 62 + 4 > 64.
        let p = Program::new(
            vec![
                Insn::Ld {
                    dst: 2,
                    off: 62,
                    width: 4,
                },
                Insn::Ret { src: 2 },
            ],
            64,
            Action::Count,
            16,
        );
        assert!(matches!(
            p.verify().unwrap_err(),
            VerifyError::OobLoad {
                pc: 0,
                off: 62,
                width: 4,
                record_len: 64
            }
        ));
    }

    #[test]
    fn rejects_backward_jump() {
        let p = Program::new(
            vec![
                Insn::LdImm { dst: 2, imm: 1 },
                Insn::Jmp { off: -2 }, // loops back to insn 0
                Insn::Ret { src: 2 },
            ],
            64,
            Action::Count,
            64,
        );
        assert!(matches!(
            p.verify().unwrap_err(),
            VerifyError::BackwardJump { pc: 1, off: -2 }
        ));
        // Conditional backward jumps are just as rejected.
        let p = Program::new(
            vec![
                Insn::JmpIfImm {
                    cmp: CmpOp::Ne,
                    a: 1,
                    imm: 0,
                    off: -1, // self-loop
                },
                Insn::Ret { src: 0 },
            ],
            64,
            Action::Count,
            64,
        );
        assert!(matches!(
            p.verify().unwrap_err(),
            VerifyError::BackwardJump { pc: 0, off: -1 }
        ));
    }

    #[test]
    fn rejects_unknown_opcode() {
        let mut bytes = Program::count_where_u32_eq(64, 0, 7).encode();
        bytes[0] = 0xfe; // not an opcode
        assert!(matches!(
            Program::decode(&bytes).unwrap_err(),
            VerifyError::UnknownOpcode { pc: 0, byte: 0xfe }
        ));
        bytes[0] = 4; // Alu with an out-of-domain op code
        bytes[1] = 42;
        assert!(matches!(
            Program::decode(&bytes).unwrap_err(),
            VerifyError::BadOperand { pc: 0 }
        ));
    }

    #[test]
    fn rejects_fuel_overflow() {
        let base = Program::count_where_u32_eq(64, 0, 7);
        assert!(matches!(
            base.clone().with_fuel(0).verify().unwrap_err(),
            VerifyError::FuelOverflow { fuel: 0 }
        ));
        assert!(matches!(
            base.clone().with_fuel(MAX_FUEL + 1).verify().unwrap_err(),
            VerifyError::FuelOverflow { .. }
        ));
        // Below one worst-case record: also rejected.
        let n = base.insns.len() as u64;
        assert!(matches!(
            base.clone().with_fuel(n - 1).verify().unwrap_err(),
            VerifyError::FuelOverflow { .. }
        ));
        assert!(base.with_fuel(n).verify().is_ok());
    }

    #[test]
    fn rejects_bad_register_and_jump_range() {
        let p = Program::new(vec![Insn::Ret { src: 16 }], 8, Action::Count, 8);
        assert!(matches!(
            p.verify().unwrap_err(),
            VerifyError::BadRegister { pc: 0, reg: 16 }
        ));
        let p = Program::new(vec![Insn::Jmp { off: 1 }], 8, Action::Count, 8);
        assert!(matches!(
            p.verify().unwrap_err(),
            VerifyError::JumpOutOfRange { pc: 0, target: 2 }
        ));
        let p = Program::new(vec![Insn::Jmp { off: 0 }], 8, Action::Count, 8);
        assert!(p.verify().is_ok(), "target == len is the normal exit");
    }

    #[test]
    fn rejects_truncated_stream() {
        let mut bytes = Program::count_where_u32_eq(64, 0, 7).encode();
        bytes.pop();
        assert_eq!(Program::decode(&bytes).unwrap_err(), VerifyError::Truncated);
    }

    // ---- encode/decode -----------------------------------------------------

    #[test]
    fn encode_decode_roundtrips() {
        for p in [
            Program::count_where_u32_eq(64, 12, 0xdead_beef),
            Program::sum_u64_where_u32_eq(64, 8, 0, 7),
            Program::select_where_u32_eq(32, 4, 1),
            Program::new(
                vec![
                    Insn::Mov { dst: 4, src: 1 },
                    Insn::Alu {
                        op: AluOp::Xor,
                        dst: 4,
                        src: 0,
                    },
                    Insn::AluImm {
                        op: AluOp::Shr,
                        dst: 4,
                        imm: 3,
                    },
                    Insn::JmpIf {
                        cmp: CmpOp::Lt,
                        a: 4,
                        b: 0,
                        off: 0,
                    },
                    Insn::Ret { src: 4 },
                ],
                16,
                Action::Sum,
                100,
            ),
        ] {
            let decoded = Program::decode(&p.encode()).expect("decodes");
            assert_eq!(decoded, p.insns);
        }
    }

    #[test]
    fn agg_reply_roundtrips_and_fits_inline() {
        let r = AggReply {
            records: 4096,
            matches: 41,
            agg: u64::MAX - 5,
            fuel_used: 12_345,
        };
        assert_eq!(AggReply::decode(&r.encode()), Some(r));
        const _FITS_INLINE: () = assert!(AggReply::LEN <= 64);
        assert_eq!(AggReply::decode(&[0u8; 31]), None);
    }

    // ---- execution ---------------------------------------------------------

    /// 64-byte records: u32 key at 0, u64 payload at 8.
    fn records(keys: &[u32], payloads: &[u64]) -> Vec<u8> {
        let mut out = vec![0u8; keys.len() * 64];
        for (i, (k, v)) in keys.iter().zip(payloads).enumerate() {
            out[i * 64..i * 64 + 4].copy_from_slice(&k.to_le_bytes());
            out[i * 64 + 8..i * 64 + 16].copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    #[test]
    fn count_and_sum_match_expectations() {
        let data = records(&[7, 1, 7, 2, 7], &[10, 100, 20, 1000, 30]);
        let count = verified(Program::count_where_u32_eq(64, 0, 7));
        let out = scan_all(&count, &data);
        assert_eq!((out.records, out.matches, out.agg), (5, 3, 0));

        let sum = verified(Program::sum_u64_where_u32_eq(64, 8, 0, 7));
        let out = scan_all(&sum, &data);
        assert_eq!((out.matches, out.agg), (3, 60));

        let select = verified(Program::select_where_u32_eq(64, 0, 7));
        let out = scan_all(&select, &data);
        assert_eq!(out.hits, vec![0, 128, 256]);
    }

    #[test]
    fn fuel_runs_out_mid_scan() {
        let data = records(&[7; 16], &[1; 16]);
        // 4 insns per matching record; 16 records need 64 fuel.
        let p = Program::count_where_u32_eq(64, 0, 7)
            .with_fuel(30)
            .verify()
            .expect("verifies");
        let mut fuel = p.fuel_budget();
        let mut out = ScanOut::default();
        assert_eq!(
            scan(&p, &data, 0, &mut fuel, &mut out),
            Err(ExecError::OutOfFuel)
        );
        assert!(out.records < 16);
    }

    #[test]
    fn trailing_partial_record_is_ignored() {
        let mut data = records(&[7, 7], &[1, 2]);
        data.extend_from_slice(&[0u8; 10]); // not a whole record
        let p = verified(Program::count_where_u32_eq(64, 0, 7));
        let out = scan_all(&p, &data);
        assert_eq!(out.records, 2);
    }

    fn scan_all(p: &VerifiedProgram, data: &[u8]) -> ScanOut {
        let mut fuel = p.fuel_budget();
        let mut out = ScanOut::default();
        scan(p, data, 0, &mut fuel, &mut out).expect("in budget");
        out
    }

    // ---- interpreter ≡ reference evaluator ---------------------------------

    fn arb_insn(record_len: usize) -> impl Strategy<Value = Insn> {
        let max_off = (record_len - 8) as u16;
        prop_oneof![
            (0u8..16, any::<u64>()).prop_map(|(dst, imm)| Insn::LdImm { dst, imm }),
            (0u8..16, 0u8..16).prop_map(|(dst, src)| Insn::Mov { dst, src }),
            (
                0u8..16,
                0u16..=max_off,
                prop_oneof![Just(1u8), Just(2), Just(4), Just(8)]
            )
                .prop_map(|(dst, off, width)| Insn::Ld { dst, off, width }),
            (arb_alu(), 0u8..16, 0u8..16).prop_map(|(op, dst, src)| Insn::Alu { op, dst, src }),
            (arb_alu(), 0u8..16, any::<u64>()).prop_map(|(op, dst, imm)| Insn::AluImm {
                op,
                dst,
                imm
            }),
            (0u16..4).prop_map(|off| Insn::Jmp { off: off as i16 }),
            (arb_cmp(), 0u8..16, 0u8..16, 0u16..4).prop_map(|(cmp, a, b, off)| Insn::JmpIf {
                cmp,
                a,
                b,
                off: off as i16
            }),
            (arb_cmp(), 0u8..16, any::<u64>(), 0u16..4).prop_map(|(cmp, a, imm, off)| {
                Insn::JmpIfImm {
                    cmp,
                    a,
                    imm,
                    off: off as i16,
                }
            }),
            (0u8..16).prop_map(|src| Insn::Ret { src }),
        ]
    }

    fn arb_alu() -> impl Strategy<Value = AluOp> {
        prop_oneof![
            Just(AluOp::Add),
            Just(AluOp::Sub),
            Just(AluOp::Mul),
            Just(AluOp::Div),
            Just(AluOp::Rem),
            Just(AluOp::And),
            Just(AluOp::Or),
            Just(AluOp::Xor),
            Just(AluOp::Shl),
            Just(AluOp::Shr),
        ]
    }

    fn arb_cmp() -> impl Strategy<Value = CmpOp> {
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any random program that the verifier accepts executes
        /// identically on the hot-path interpreter and the independent
        /// reference evaluator — including fuel accounting and
        /// out-of-fuel behavior.
        #[test]
        fn interpreter_matches_reference(
            insns in proptest::collection::vec(arb_insn(16), 1..24),
            page in proptest::collection::vec(any::<u8>(), 0..256),
            action_sel in 0u8..3,
            fuel in 1u64..400,
        ) {
            let action = match action_sel {
                0 => Action::Count,
                1 => Action::Sum,
                _ => Action::Select,
            };
            let prog = Program::new(insns, 16, action, fuel);
            // Out-of-range jump targets and tight fuel are rejected
            // sometimes — only verified programs are comparable.
            if let Ok(vp) = prog.verify() {
                let mut fuel_left = vp.fuel_budget();
                let mut out = ScanOut::default();
                let got = scan(&vp, &page, 3, &mut fuel_left, &mut out).map(|()| out);
                let want = reference_scan(&vp, &page, 3);
                prop_assert_eq!(got, want);
            }
        }
    }
}
