//! Instruction definitions and static properties.
//!
//! Every instruction is a `Copy` value; the timing model and the predictors
//! interrogate instructions only through the property methods
//! ([`Instruction::dests`], [`Instruction::mem_size`], …), never through
//! pattern matching, so new opcodes stay local to this module.

use crate::reg::Reg;
use std::fmt;

/// Integer/float ALU operations. Float ops reinterpret the 64-bit register
/// contents as `f64` (there is no separate FP register file; see
/// [`crate::reg`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Orr,
    Eor,
    Lsl,
    Lsr,
    Asr,
    Mul,
    /// Signed 64-bit division; division by zero yields 0 (as on AArch64).
    Div,
    /// Unsigned remainder; modulo zero yields the dividend.
    Rem,
    FAdd,
    FSub,
    FMul,
    /// Float division; x/0 yields the IEEE result (inf/NaN bit pattern).
    FDiv,
}

impl AluOp {
    /// Whether this operation interprets operands as `f64`.
    pub const fn is_float(self) -> bool {
        matches!(self, AluOp::FAdd | AluOp::FSub | AluOp::FMul | AluOp::FDiv)
    }

    /// Apply the operation to two 64-bit operands.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Orr => a | b,
            AluOp::Eor => a ^ b,
            AluOp::Lsl => a.wrapping_shl((b & 63) as u32),
            AluOp::Lsr => a.wrapping_shr((b & 63) as u32),
            AluOp::Asr => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    ((a as i64).wrapping_div(b as i64)) as u64
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
            AluOp::FAdd => (f64::from_bits(a) + f64::from_bits(b)).to_bits(),
            AluOp::FSub => (f64::from_bits(a) - f64::from_bits(b)).to_bits(),
            AluOp::FMul => (f64::from_bits(a) * f64::from_bits(b)).to_bits(),
            AluOp::FDiv => (f64::from_bits(a) / f64::from_bits(b)).to_bits(),
        }
    }
}

/// Branch comparison condition (register–register, MIPS-style; the ISA has no
/// flags register, which keeps dependence tracking explicit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    Eq,
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl Cond {
    /// Evaluate the condition on two register values.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i64) < (b as i64),
            Cond::Ge => (a as i64) >= (b as i64),
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
        }
    }
}

/// Memory access width. `Q` (128-bit) is used only by vector load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemSize {
    B,
    H,
    W,
    X,
    Q,
}

impl MemSize {
    /// Access width in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            MemSize::B => 1,
            MemSize::H => 2,
            MemSize::W => 4,
            MemSize::X => 8,
            MemSize::Q => 16,
        }
    }

    /// The 2-bit encoding used in the APT `size` field (Table 1: "0 means
    /// 4 bytes, 1 means 8 bytes ..."). Sub-word sizes share code 0.
    pub const fn apt_code(self) -> u8 {
        match self {
            MemSize::B | MemSize::H | MemSize::W => 0,
            MemSize::X => 1,
            MemSize::Q => 2,
        }
    }
}

/// A set of X registers, used by load-multiple / store-multiple.
///
/// Bit `i` set means `X<i>` is in the list. Registers transfer in ascending
/// index order from ascending addresses, as in ARM `LDM`.
///
/// ```
/// use lvp_isa::{RegList, Reg};
/// let l = RegList::of(&[Reg::X1, Reg::X4]);
/// assert_eq!(l.len(), 2);
/// assert_eq!(l.iter().collect::<Vec<_>>(), vec![Reg::X1, Reg::X4]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegList(pub u32);

impl RegList {
    /// An empty list.
    pub const EMPTY: RegList = RegList(0);

    /// Builds a list from a slice of registers. The zero register is
    /// rejected because a load that targets it would be architecturally
    /// dead.
    ///
    /// # Panics
    ///
    /// Panics if `regs` contains [`Reg::ZR`].
    pub fn of(regs: &[Reg]) -> RegList {
        let mut bits = 0u32;
        for &r in regs {
            assert!(!r.is_zero(), "RegList cannot contain the zero register");
            bits |= 1 << r.index();
        }
        RegList(bits)
    }

    /// Number of registers in the list.
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the list is empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate registers in ascending index order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        (0u8..32).filter_map(move |i| {
            if self.0 & (1 << i) != 0 {
                Some(Reg::x(i))
            } else {
                None
            }
        })
    }
}

impl fmt::Debug for RegList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Coarse classification used by the timing model to pick an execution
/// latency and lane class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    IntAlu,
    IntMul,
    IntDiv,
    FpAlu,
    FpDiv,
    Load,
    Store,
    Branch,
    Other,
}

/// The kind of control transfer an instruction performs, consumed by the
/// branch predictors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Unconditional direct branch.
    Direct,
    /// Conditional direct branch.
    Conditional,
    /// Direct call (pushes return address).
    Call,
    /// Return (pops return address).
    Return,
    /// Indirect jump through a register.
    Indirect,
    /// Indirect call through a register.
    IndirectCall,
}

/// One machine instruction.
///
/// `target`s in branch variants are absolute byte addresses (the assembler
/// resolves labels). Memory operands are base + signed immediate offset, or
/// base + index register for the `*Idx` forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// No operation.
    Nop,
    /// Stop the program.
    Halt,
    /// `rd = op(rn, rm)`.
    Alu {
        op: AluOp,
        rd: Reg,
        rn: Reg,
        rm: Reg,
    },
    /// `rd = op(rn, imm)`.
    AluImm {
        op: AluOp,
        rd: Reg,
        rn: Reg,
        imm: i64,
    },
    /// `rd = imm` (64-bit move-immediate; a pseudo-instruction).
    MovImm { rd: Reg, imm: u64 },
    /// `rd = zero_extend(mem[rn + offset], size)`.
    Ldr {
        rd: Reg,
        rn: Reg,
        offset: i64,
        size: MemSize,
    },
    /// Load-acquire (`LDAR`): an ordered load. The paper's memory-
    /// consistency rule (§3.2.2) bars address prediction for ordering,
    /// atomic and exclusive accesses; predictors must skip these.
    Ldar { rd: Reg, rn: Reg },
    /// Store-release (`STLR`): an ordered store.
    Stlr { rt: Reg, rn: Reg },
    /// `rd = zero_extend(mem[rn + rm], size)` (register-indexed load).
    LdrIdx {
        rd: Reg,
        rn: Reg,
        rm: Reg,
        size: MemSize,
    },
    /// `mem[rn + offset] = rt[..size]`.
    Str {
        rt: Reg,
        rn: Reg,
        offset: i64,
        size: MemSize,
    },
    /// `mem[rn + rm] = rt[..size]`.
    StrIdx {
        rt: Reg,
        rn: Reg,
        rm: Reg,
        size: MemSize,
    },
    /// Load pair: `rd1 = mem[rn+offset]`, `rd2 = mem[rn+offset+8]`. Two
    /// 64-bit destination registers — one APT entry under DLVP, two value
    /// predictor entries under VTAGE (paper §5.2.2).
    Ldp {
        rd1: Reg,
        rd2: Reg,
        rn: Reg,
        offset: i64,
    },
    /// Store pair.
    Stp {
        rt1: Reg,
        rt2: Reg,
        rn: Reg,
        offset: i64,
    },
    /// Load multiple: registers in `list` load from consecutive 8-byte slots
    /// starting at `[rn]`, ascending. Up to 16 destination registers.
    Ldm { list: RegList, rn: Reg },
    /// Store multiple.
    Stm { list: RegList, rn: Reg },
    /// 128-bit vector load into the even/odd register pair `(vd, vd+1)`;
    /// `vd` must have an even index below 30.
    Vld { vd: Reg, rn: Reg, offset: i64 },
    /// 128-bit vector store from the pair `(vs, vs+1)`.
    Vst { vs: Reg, rn: Reg, offset: i64 },
    /// Unconditional branch to `target`.
    B { target: u64 },
    /// Conditional branch: taken when `cond(rn, rm)`.
    Bc {
        cond: Cond,
        rn: Reg,
        rm: Reg,
        target: u64,
    },
    /// Compare-and-branch-if-zero.
    Cbz { rn: Reg, target: u64 },
    /// Compare-and-branch-if-nonzero.
    Cbnz { rn: Reg, target: u64 },
    /// Call: `x30 = pc + 4; pc = target`.
    Bl { target: u64 },
    /// Return: `pc = x30`.
    Ret,
    /// Indirect branch: `pc = rn`.
    Br { rn: Reg },
    /// Indirect call: `x30 = pc + 4; pc = rn`.
    Blr { rn: Reg },
}

/// The destination registers of one instruction, in write order: a
/// fixed-capacity list on the stack that derefs to `&[Reg]`, so asking an
/// instruction for its destinations never touches the heap. One slot per
/// architectural register covers the largest `LDM`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dests {
    regs: [Reg; Reg::COUNT],
    len: u8,
}

impl Dests {
    const EMPTY: Dests = Dests {
        regs: [Reg::ZR; Reg::COUNT],
        len: 0,
    };

    fn push(&mut self, r: Reg) {
        self.regs[self.len as usize] = r;
        self.len += 1;
    }
}

impl std::ops::Deref for Dests {
    type Target = [Reg];

    #[inline]
    fn deref(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }
}

impl IntoIterator for Dests {
    type Item = Reg;
    type IntoIter = std::iter::Take<std::array::IntoIter<Reg, { Reg::COUNT }>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(self.len as usize)
    }
}

impl fmt::Debug for Dests {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Up to four source registers, padded with `None`.
pub type Sources = [Option<Reg>; 4];

impl Instruction {
    /// Whether the instruction reads data memory.
    pub const fn is_load(self) -> bool {
        matches!(
            self,
            Instruction::Ldr { .. }
                | Instruction::Ldar { .. }
                | Instruction::LdrIdx { .. }
                | Instruction::Ldp { .. }
                | Instruction::Ldm { .. }
                | Instruction::Vld { .. }
        )
    }

    /// Whether this is a memory-ordering access (acquire/release): excluded
    /// from address/value prediction per the paper's §3.2.2 consistency
    /// rule.
    pub const fn is_ordered(self) -> bool {
        matches!(self, Instruction::Ldar { .. } | Instruction::Stlr { .. })
    }

    /// Whether the instruction writes data memory.
    pub const fn is_store(self) -> bool {
        matches!(
            self,
            Instruction::Str { .. }
                | Instruction::Stlr { .. }
                | Instruction::StrIdx { .. }
                | Instruction::Stp { .. }
                | Instruction::Stm { .. }
                | Instruction::Vst { .. }
        )
    }

    /// Whether the instruction is any control transfer.
    pub const fn is_branch(self) -> bool {
        self.branch_kind().is_some()
    }

    /// The branch kind, if this is a control transfer.
    pub const fn branch_kind(self) -> Option<BranchKind> {
        match self {
            Instruction::B { .. } => Some(BranchKind::Direct),
            Instruction::Bc { .. } | Instruction::Cbz { .. } | Instruction::Cbnz { .. } => {
                Some(BranchKind::Conditional)
            }
            Instruction::Bl { .. } => Some(BranchKind::Call),
            Instruction::Ret => Some(BranchKind::Return),
            Instruction::Br { .. } => Some(BranchKind::Indirect),
            Instruction::Blr { .. } => Some(BranchKind::IndirectCall),
            _ => None,
        }
    }

    /// Static (direct) branch target, if any.
    pub const fn direct_target(self) -> Option<u64> {
        match self {
            Instruction::B { target }
            | Instruction::Bc { target, .. }
            | Instruction::Cbz { target, .. }
            | Instruction::Cbnz { target, .. }
            | Instruction::Bl { target } => Some(target),
            _ => None,
        }
    }

    /// Memory access width in bytes, if the instruction touches memory.
    pub fn mem_bytes(self) -> Option<u64> {
        self.mem_size().map(MemSize::bytes).map(|b| match self {
            Instruction::Ldp { .. } | Instruction::Stp { .. } => 16,
            Instruction::Ldm { list, .. } | Instruction::Stm { list, .. } => 8 * list.len() as u64,
            _ => b,
        })
    }

    /// Element access size for memory operations.
    pub const fn mem_size(self) -> Option<MemSize> {
        match self {
            Instruction::Ldr { size, .. }
            | Instruction::LdrIdx { size, .. }
            | Instruction::Str { size, .. }
            | Instruction::StrIdx { size, .. } => Some(size),
            Instruction::Ldar { .. } | Instruction::Stlr { .. } => Some(MemSize::X),
            Instruction::Ldp { .. } | Instruction::Stp { .. } => Some(MemSize::X),
            Instruction::Ldm { .. } | Instruction::Stm { .. } => Some(MemSize::X),
            Instruction::Vld { .. } | Instruction::Vst { .. } => Some(MemSize::Q),
            _ => None,
        }
    }

    /// Destination registers, in write order. Empty for stores/branches.
    /// Writes to the zero register are filtered out (they are architectural
    /// no-ops).
    pub fn dests(self) -> Dests {
        let mut out = Dests::EMPTY;
        let mut keep = |r: Reg| {
            if !r.is_zero() {
                out.push(r);
            }
        };
        match self {
            Instruction::Alu { rd, .. }
            | Instruction::AluImm { rd, .. }
            | Instruction::MovImm { rd, .. }
            | Instruction::Ldr { rd, .. }
            | Instruction::Ldar { rd, .. }
            | Instruction::LdrIdx { rd, .. } => keep(rd),
            Instruction::Ldp { rd1, rd2, .. } => {
                keep(rd1);
                keep(rd2);
            }
            Instruction::Ldm { list, .. } => list.iter().for_each(|r| out.push(r)),
            Instruction::Vld { vd, .. } => {
                out.push(vd);
                out.push(Reg::x(vd.index() as u8 + 1));
            }
            Instruction::Bl { .. } | Instruction::Blr { .. } => out.push(Reg::LR),
            _ => {}
        }
        out
    }

    /// Number of 64-bit destination chunks a value predictor must cover for
    /// this instruction (paper §5.2.2: LDP→2, LDM→N, VLD→2).
    pub fn dest_chunks(self) -> usize {
        self.dests().len()
    }

    /// Source registers (architectural reads), padded with `None`. The zero
    /// register never appears (its value is constant).
    pub fn sources(self) -> Sources {
        let mut out: Sources = [None; 4];
        let mut n = 0;
        let mut push = |r: Reg| {
            if !r.is_zero() && n < 4 {
                out[n] = Some(r);
                n += 1;
            }
        };
        match self {
            Instruction::Alu { rn, rm, .. } => {
                push(rn);
                push(rm);
            }
            Instruction::AluImm { rn, .. } => push(rn),
            Instruction::Ldr { rn, .. }
            | Instruction::Ldar { rn, .. }
            | Instruction::Ldp { rn, .. }
            | Instruction::Ldm { rn, .. }
            | Instruction::Vld { rn, .. } => push(rn),
            Instruction::Stlr { rt, rn } => {
                push(rn);
                push(rt);
            }
            Instruction::LdrIdx { rn, rm, .. } => {
                push(rn);
                push(rm);
            }
            Instruction::Str { rt, rn, .. } => {
                push(rn);
                push(rt);
            }
            Instruction::StrIdx { rt, rn, rm, .. } => {
                push(rn);
                push(rm);
                push(rt);
            }
            Instruction::Stp { rt1, rt2, rn, .. } => {
                push(rn);
                push(rt1);
                push(rt2);
            }
            Instruction::Stm { list, rn } => {
                push(rn);
                // Register-list stores read many registers; expose the first
                // three for dependence purposes (occupancy-accurate enough).
                for r in list.iter().take(3) {
                    push(r);
                }
            }
            Instruction::Vst { vs, rn, .. } => {
                push(rn);
                push(vs);
                push(Reg::x(vs.index() as u8 + 1));
            }
            Instruction::Bc { rn, rm, .. } => {
                push(rn);
                push(rm);
            }
            Instruction::Cbz { rn, .. } | Instruction::Cbnz { rn, .. } => push(rn),
            Instruction::Br { rn } | Instruction::Blr { rn } => push(rn),
            Instruction::Ret => push(Reg::LR),
            _ => {}
        }
        out
    }

    /// The constant byte offset added to the base register for memory
    /// operations with an immediate addressing form (zero for the
    /// base-only forms `LDAR`/`STLR`/`LDM`/`STM`). `None` for
    /// register-indexed forms and non-memory instructions — static analyses
    /// must consult [`Instruction::mem_index`] in that case.
    pub const fn mem_offset(self) -> Option<i64> {
        match self {
            Instruction::Ldr { offset, .. }
            | Instruction::Str { offset, .. }
            | Instruction::Ldp { offset, .. }
            | Instruction::Stp { offset, .. }
            | Instruction::Vld { offset, .. }
            | Instruction::Vst { offset, .. } => Some(offset),
            Instruction::Ldar { .. }
            | Instruction::Stlr { .. }
            | Instruction::Ldm { .. }
            | Instruction::Stm { .. } => Some(0),
            _ => None,
        }
    }

    /// The index register for register-indexed memory operations
    /// (`LdrIdx`/`StrIdx`), whose effective address is `rn + rm`.
    pub const fn mem_index(self) -> Option<Reg> {
        match self {
            Instruction::LdrIdx { rm, .. } | Instruction::StrIdx { rm, .. } => Some(rm),
            _ => None,
        }
    }

    /// The base address register for memory operations.
    pub const fn mem_base(self) -> Option<Reg> {
        match self {
            Instruction::Ldr { rn, .. }
            | Instruction::Ldar { rn, .. }
            | Instruction::Stlr { rn, .. }
            | Instruction::LdrIdx { rn, .. }
            | Instruction::Str { rn, .. }
            | Instruction::StrIdx { rn, .. }
            | Instruction::Ldp { rn, .. }
            | Instruction::Stp { rn, .. }
            | Instruction::Ldm { rn, .. }
            | Instruction::Stm { rn, .. }
            | Instruction::Vld { rn, .. }
            | Instruction::Vst { rn, .. } => Some(rn),
            _ => None,
        }
    }

    /// Classify for the timing model.
    pub fn op_class(self) -> OpClass {
        match self {
            _ if self.is_load() => OpClass::Load,
            _ if self.is_store() => OpClass::Store,
            _ if self.is_branch() => OpClass::Branch,
            Instruction::Alu { op, .. } | Instruction::AluImm { op, .. } => match op {
                AluOp::Mul => OpClass::IntMul,
                AluOp::Div | AluOp::Rem => OpClass::IntDiv,
                AluOp::FDiv => OpClass::FpDiv,
                o if o.is_float() => OpClass::FpAlu,
                _ => OpClass::IntAlu,
            },
            Instruction::MovImm { .. } => OpClass::IntAlu,
            // Loads/stores/branches are handled by the guards above; what
            // remains is Nop/Halt.
            _ => OpClass::Other,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instruction::*;
        match *self {
            Nop => write!(f, "nop"),
            Halt => write!(f, "halt"),
            Alu { op, rd, rn, rm } => write!(f, "{:?} {rd}, {rn}, {rm}", op),
            AluImm { op, rd, rn, imm } => write!(f, "{:?} {rd}, {rn}, #{imm}", op),
            MovImm { rd, imm } => write!(f, "mov {rd}, #{imm:#x}"),
            Ldr {
                rd,
                rn,
                offset,
                size,
            } => write!(f, "ldr{:?} {rd}, [{rn}, #{offset}]", size),
            Ldar { rd, rn } => write!(f, "ldar {rd}, [{rn}]"),
            Stlr { rt, rn } => write!(f, "stlr {rt}, [{rn}]"),
            LdrIdx { rd, rn, rm, size } => write!(f, "ldr{:?} {rd}, [{rn}, {rm}]", size),
            Str {
                rt,
                rn,
                offset,
                size,
            } => write!(f, "str{:?} {rt}, [{rn}, #{offset}]", size),
            StrIdx { rt, rn, rm, size } => write!(f, "str{:?} {rt}, [{rn}, {rm}]", size),
            Ldp {
                rd1,
                rd2,
                rn,
                offset,
            } => write!(f, "ldp {rd1}, {rd2}, [{rn}, #{offset}]"),
            Stp {
                rt1,
                rt2,
                rn,
                offset,
            } => write!(f, "stp {rt1}, {rt2}, [{rn}, #{offset}]"),
            Ldm { list, rn } => write!(f, "ldm {list:?}, [{rn}]"),
            Stm { list, rn } => write!(f, "stm {list:?}, [{rn}]"),
            Vld { vd, rn, offset } => write!(f, "vld {vd}, [{rn}, #{offset}]"),
            Vst { vs, rn, offset } => write!(f, "vst {vs}, [{rn}, #{offset}]"),
            B { target } => write!(f, "b {target:#x}"),
            Bc {
                cond,
                rn,
                rm,
                target,
            } => write!(f, "b.{:?} {rn}, {rm}, {target:#x}", cond),
            Cbz { rn, target } => write!(f, "cbz {rn}, {target:#x}"),
            Cbnz { rn, target } => write!(f, "cbnz {rn}, {target:#x}"),
            Bl { target } => write!(f, "bl {target:#x}"),
            Ret => write!(f, "ret"),
            Br { rn } => write!(f, "br {rn}"),
            Blr { rn } => write!(f, "blr {rn}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(3, 4), 7);
        assert_eq!(AluOp::Sub.apply(3, 4), u64::MAX);
        assert_eq!(AluOp::Div.apply(10, 0), 0);
        assert_eq!(AluOp::Div.apply((-9i64) as u64, 3), (-3i64) as u64);
        assert_eq!(AluOp::Rem.apply(10, 0), 10);
        assert_eq!(AluOp::Lsl.apply(1, 65), 2, "shift amounts wrap mod 64");
        let x = AluOp::FAdd.apply(1.5f64.to_bits(), 2.25f64.to_bits());
        assert_eq!(f64::from_bits(x), 3.75);
    }

    #[test]
    fn cond_semantics() {
        assert!(Cond::Eq.eval(5, 5));
        assert!(Cond::Lt.eval((-1i64) as u64, 0));
        assert!(!Cond::Ltu.eval((-1i64) as u64, 0));
        assert!(Cond::Geu.eval((-1i64) as u64, 0));
    }

    #[test]
    fn ldp_has_two_dests_one_base_source() {
        let i = Instruction::Ldp {
            rd1: Reg::X1,
            rd2: Reg::X2,
            rn: Reg::X0,
            offset: 16,
        };
        assert!(i.is_load());
        assert_eq!(*i.dests(), [Reg::X1, Reg::X2]);
        assert_eq!(i.dest_chunks(), 2);
        assert_eq!(i.mem_bytes(), Some(16));
        assert_eq!(i.sources()[0], Some(Reg::X0));
        assert_eq!(i.mem_base(), Some(Reg::X0));
    }

    #[test]
    fn ldm_dest_count_matches_list() {
        let list = RegList::of(&[Reg::X1, Reg::X2, Reg::X3, Reg::X9]);
        let i = Instruction::Ldm { list, rn: Reg::X0 };
        assert_eq!(i.dest_chunks(), 4);
        assert_eq!(i.mem_bytes(), Some(32));
        assert_eq!(i.op_class(), OpClass::Load);
    }

    #[test]
    fn vld_writes_even_odd_pair() {
        let i = Instruction::Vld {
            vd: Reg::X10,
            rn: Reg::X0,
            offset: 0,
        };
        assert_eq!(*i.dests(), [Reg::X10, Reg::X11]);
        assert_eq!(i.mem_bytes(), Some(16));
    }

    #[test]
    fn dests_hold_the_widest_register_list() {
        let all = Instruction::Ldm {
            list: RegList(u32::MAX),
            rn: Reg::X0,
        };
        let dests = all.dests();
        assert_eq!(dests.len(), Reg::COUNT);
        assert_eq!(dests.last(), Some(&Reg::ZR));
        assert_eq!(dests.into_iter().count(), Reg::COUNT);
        assert_eq!(all.dest_chunks(), Reg::COUNT);
        assert_eq!(format!("{:?}", Instruction::Ret.dests()), "[]");
    }

    #[test]
    fn zero_register_dest_is_filtered() {
        let i = Instruction::AluImm {
            op: AluOp::Add,
            rd: Reg::ZR,
            rn: Reg::X1,
            imm: 1,
        };
        assert!(i.dests().is_empty());
    }

    #[test]
    fn branch_kinds() {
        assert_eq!(
            Instruction::B { target: 8 }.branch_kind(),
            Some(BranchKind::Direct)
        );
        assert_eq!(Instruction::Ret.branch_kind(), Some(BranchKind::Return));
        assert_eq!(
            Instruction::Blr { rn: Reg::X5 }.branch_kind(),
            Some(BranchKind::IndirectCall)
        );
        assert_eq!(Instruction::Nop.branch_kind(), None);
        assert!(Instruction::Bl { target: 0 }.dests().contains(&Reg::LR));
        assert_eq!(Instruction::Ret.sources()[0], Some(Reg::LR));
    }

    #[test]
    fn store_sources_include_data_and_base() {
        let s = Instruction::Str {
            rt: Reg::X7,
            rn: Reg::X2,
            offset: 0,
            size: MemSize::X,
        };
        let src: Vec<_> = s.sources().iter().flatten().copied().collect();
        assert_eq!(src, vec![Reg::X2, Reg::X7]);
        assert!(s.dests().is_empty());
        assert!(s.is_store() && !s.is_load());
    }

    #[test]
    fn op_classes() {
        let mul = Instruction::Alu {
            op: AluOp::Mul,
            rd: Reg::X1,
            rn: Reg::X2,
            rm: Reg::X3,
        };
        assert_eq!(mul.op_class(), OpClass::IntMul);
        let fdiv = Instruction::Alu {
            op: AluOp::FDiv,
            rd: Reg::X1,
            rn: Reg::X2,
            rm: Reg::X3,
        };
        assert_eq!(fdiv.op_class(), OpClass::FpDiv);
        let fadd = Instruction::AluImm {
            op: AluOp::FAdd,
            rd: Reg::X1,
            rn: Reg::X2,
            imm: 0,
        };
        assert_eq!(fadd.op_class(), OpClass::FpAlu);
    }

    #[test]
    fn reglist_iteration_is_ascending() {
        let l = RegList::of(&[Reg::X9, Reg::X1, Reg::X30]);
        let v: Vec<_> = l.iter().collect();
        assert_eq!(v, vec![Reg::X1, Reg::X9, Reg::X30]);
        assert_eq!(l.len(), 3);
        assert!(RegList::EMPTY.is_empty());
    }

    #[test]
    fn mem_offset_and_index_accessors() {
        let ldr = Instruction::Ldr {
            rd: Reg::X1,
            rn: Reg::X0,
            offset: 24,
            size: MemSize::X,
        };
        assert_eq!(ldr.mem_offset(), Some(24));
        assert_eq!(ldr.mem_index(), None);
        let idx = Instruction::StrIdx {
            rt: Reg::X1,
            rn: Reg::X0,
            rm: Reg::X5,
            size: MemSize::W,
        };
        assert_eq!(idx.mem_offset(), None);
        assert_eq!(idx.mem_index(), Some(Reg::X5));
        let ldar = Instruction::Ldar {
            rd: Reg::X1,
            rn: Reg::X0,
        };
        assert_eq!(ldar.mem_offset(), Some(0));
        assert_eq!(Instruction::Nop.mem_offset(), None);
        assert_eq!(Instruction::Nop.mem_index(), None);
    }

    #[test]
    fn apt_size_codes() {
        assert_eq!(MemSize::W.apt_code(), 0);
        assert_eq!(MemSize::X.apt_code(), 1);
        assert_eq!(MemSize::Q.apt_code(), 2);
    }

    #[test]
    fn display_smoke() {
        let i = Instruction::Ldr {
            rd: Reg::X1,
            rn: Reg::X0,
            offset: 8,
            size: MemSize::X,
        };
        assert_eq!(i.to_string(), "ldrX x1, [x0, #8]");
        assert!(!format!("{:?}", i).is_empty());
    }
}
