//! # lvp-isa — a compact ARM-flavoured ISA for load-value-prediction studies
//!
//! This crate defines the instruction set executed by the functional emulator
//! (`lvp-emu`) and timed by the cycle-level core model (`lvp-uarch`) in the
//! DLVP reproduction. It is deliberately ARM-shaped where the paper's analysis
//! depends on ARM specifics:
//!
//! * **Multi-destination loads** — [`Instruction::Ldp`] (load pair, 2 dests),
//!   [`Instruction::Ldm`] (load multiple, up to 16 dests) and
//!   [`Instruction::Vld`] (128-bit vector load, 2×64-bit chunks). Section 5.2.2
//!   of the paper shows these are the loads that break conventional value
//!   predictors and motivate DLVP's single-entry-per-load address prediction.
//! * **Fixed 4-byte instructions** — load-path history shifts bit 2 of each
//!   load PC, "the least significant, non-zero bit ... because most
//!   instructions are 4 bytes" (§3.1).
//! * **Call/return and indirect branches** — exercised by the RAS and ITTAGE
//!   predictors in `lvp-branch`.
//!
//! All instructions are `Copy`, so dynamic traces can embed them without
//! allocation.
//!
//! ## Example
//!
//! ```
//! use lvp_isa::{Asm, Reg, MemSize};
//!
//! let mut a = Asm::new(0x1000);
//! let loop_top = a.here();
//! a.ldr(Reg::X1, Reg::X0, 0, MemSize::X); // x1 = [x0]
//! a.addi(Reg::X2, Reg::X2, 1);
//! a.cbnz(Reg::X1, loop_top);
//! a.halt();
//! let program = a.build();
//! assert_eq!(program.len(), 4);
//! ```

pub mod asm;
pub mod encode;
pub mod inst;
pub mod program;
pub mod reg;

pub use asm::{Asm, Label};
pub use encode::{decode, encode, DecodeError};
pub use inst::{AluOp, BranchKind, Cond, Dests, Instruction, MemSize, OpClass, RegList};
pub use program::{DataInit, Program};
pub use reg::Reg;

/// Size of every instruction in bytes. The ISA is fixed-width, like AArch64.
pub const INST_BYTES: u64 = 4;
