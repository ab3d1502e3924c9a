//! The architectural interpreter.

use crate::block::{Block, BlockCache};
use crate::memory::SparseMemory;
use lvp_isa::{Instruction, Program, Reg, INST_BYTES};
use lvp_trace::{Trace, TraceRecord};
use std::rc::Rc;

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A `halt` instruction was executed.
    Halted,
    /// The dynamic instruction budget was exhausted.
    BudgetExhausted,
    /// The PC left the program text.
    FellOffText,
}

/// A completed run: the dynamic trace plus final architectural state access.
#[derive(Debug)]
pub struct RunOutcome {
    pub trace: Trace,
    pub stop: StopReason,
    /// Final register file (for kernel self-checks in tests).
    pub regs: [u64; Reg::COUNT],
}

/// Functional emulator over a [`Program`].
///
/// Execution replays predecoded basic blocks (the `block` module): each
/// static straight-line run is decoded once and then driven from a flat
/// instruction slice, with fetch/halt checks paid per block rather than per
/// dynamic instruction.
#[derive(Debug)]
pub struct Emulator {
    program: Program,
    regs: [u64; Reg::COUNT],
    mem: SparseMemory,
    pc: u64,
    blocks: BlockCache,
    /// Replay cursor: current block plus the next instruction offset in it.
    cur: Option<(Rc<Block>, usize)>,
    /// Set once the program halts or the PC leaves the text.
    stopped: Option<StopReason>,
    /// Dynamic instructions executed so far (stamps streaming `seq`s).
    steps: u64,
}

impl Emulator {
    /// Creates an emulator with data initializers applied, PC at the program
    /// base, and all registers zero.
    pub fn new(program: Program) -> Emulator {
        let mut mem = SparseMemory::new();
        for init in program.data() {
            mem.write_bytes(init.addr, &init.bytes);
        }
        let pc = program.base();
        let blocks = BlockCache::new(program.len());
        Emulator {
            program,
            regs: [0; Reg::COUNT],
            mem,
            pc,
            blocks,
            cur: None,
            stopped: None,
            steps: 0,
        }
    }

    /// Reads a register (the zero register reads 0).
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Direct memory access (for tests and workload setup).
    pub fn mem(&mut self) -> &mut SparseMemory {
        &mut self.mem
    }

    /// Loads the block at the current PC into the cursor, or reports why
    /// execution cannot continue.
    fn refill(&mut self) -> Result<(), StopReason> {
        match self.blocks.lookup(&self.program, self.pc) {
            None => Err(StopReason::FellOffText),
            Some(b) if b.insts.is_empty() => Err(StopReason::Halted),
            Some(b) => {
                self.cur = Some((b, 0));
                Ok(())
            }
        }
    }

    /// Why streaming execution stopped, once [`Emulator::step_record`] has
    /// returned `None`. Always `Some` after that point; never
    /// [`StopReason::BudgetExhausted`] (budgets belong to the caller).
    pub fn stopped(&self) -> Option<StopReason> {
        self.stopped
    }

    /// Executes one instruction and returns its record, or `None` when the
    /// program halts or the PC leaves the text (see [`Emulator::stopped`]).
    ///
    /// This is the streaming counterpart of [`Emulator::run`]: the caller
    /// owns the budget and nothing is buffered, so fast-forwarding a long
    /// region never materializes a [`Trace`]. Records carry dense `seq`
    /// numbers from the first call onward — identical to the numbering
    /// [`Trace::push`] would assign.
    pub fn step_record(&mut self) -> Option<TraceRecord> {
        if self.stopped.is_some() {
            return None;
        }
        loop {
            let fetched = match &mut self.cur {
                Some((block, off)) if *off < block.insts.len() => {
                    let inst = block.insts[*off];
                    *off += 1;
                    Some(inst)
                }
                _ => None,
            };
            match fetched {
                Some(inst) => {
                    let mut rec = self.step(inst);
                    rec.seq = self.steps;
                    self.steps += 1;
                    return Some(rec);
                }
                None => {
                    if let Err(stop) = self.refill() {
                        self.stopped = Some(stop);
                        return None;
                    }
                }
            }
        }
    }

    /// Streams up to `max_insts` records, consuming the emulator. The
    /// final architectural state stays reachable through
    /// [`Records::into_emulator`].
    pub fn records(self, max_insts: u64) -> Records {
        Records {
            emu: self,
            remaining: max_insts,
        }
    }

    /// Runs up to `max_insts` dynamic instructions, producing the trace.
    ///
    /// Replays whole predecoded blocks against the remaining budget, so the
    /// per-instruction cost is one dispatch from a flat slice.
    pub fn run(mut self, max_insts: u64) -> RunOutcome {
        let mut trace = Trace::new();
        let mut remaining = max_insts;
        let stop = loop {
            if let Some(stop) = self.stopped {
                break stop;
            }
            if remaining == 0 {
                break StopReason::BudgetExhausted;
            }
            let cursor = match &self.cur {
                Some((block, off)) if *off < block.insts.len() => Some((block.clone(), *off)),
                _ => None,
            };
            let Some((block, off)) = cursor else {
                match self.refill() {
                    Ok(()) => continue,
                    Err(stop) => break stop,
                }
            };
            let avail = block.insts.len() - off;
            let take = avail.min(usize::try_from(remaining).unwrap_or(usize::MAX));
            for inst in &block.insts[off..off + take] {
                let rec = self.step(*inst);
                trace.push(rec);
            }
            self.steps += take as u64;
            remaining -= take as u64;
            self.cur = Some((block, off + take));
        };
        RunOutcome {
            trace,
            stop,
            regs: self.regs,
        }
    }

    /// Executes a single instruction, returning its trace record and
    /// advancing PC.
    fn step(&mut self, inst: Instruction) -> TraceRecord {
        use Instruction::*;
        let pc = self.pc;
        let mut next_pc = pc.wrapping_add(INST_BYTES);
        let mut eff_addr = 0u64;
        let mut value = 0u64;
        let mut extra: Vec<u64> = Vec::new();

        match inst {
            Nop | Halt => {}
            Alu { op, rd, rn, rm } => {
                let v = op.apply(self.reg(rn), self.reg(rm));
                self.set_reg(rd, v);
                value = v;
            }
            AluImm { op, rd, rn, imm } => {
                let v = op.apply(self.reg(rn), imm as u64);
                self.set_reg(rd, v);
                value = v;
            }
            MovImm { rd, imm } => {
                self.set_reg(rd, imm);
                value = imm;
            }
            Ldr {
                rd,
                rn,
                offset,
                size,
            } => {
                eff_addr = self.reg(rn).wrapping_add(offset as u64);
                value = self.mem.read_le(eff_addr, size.bytes());
                self.set_reg(rd, value);
            }
            Ldar { rd, rn } => {
                eff_addr = self.reg(rn);
                value = self.mem.read_le(eff_addr, 8);
                self.set_reg(rd, value);
            }
            Stlr { rt, rn } => {
                eff_addr = self.reg(rn);
                value = self.reg(rt);
                self.mem.write_le(eff_addr, 8, value);
            }
            LdrIdx { rd, rn, rm, size } => {
                eff_addr = self.reg(rn).wrapping_add(self.reg(rm));
                value = self.mem.read_le(eff_addr, size.bytes());
                self.set_reg(rd, value);
            }
            Str {
                rt,
                rn,
                offset,
                size,
            } => {
                eff_addr = self.reg(rn).wrapping_add(offset as u64);
                value = self.reg(rt) & mask(size.bytes());
                self.mem.write_le(eff_addr, size.bytes(), value);
            }
            StrIdx { rt, rn, rm, size } => {
                eff_addr = self.reg(rn).wrapping_add(self.reg(rm));
                value = self.reg(rt) & mask(size.bytes());
                self.mem.write_le(eff_addr, size.bytes(), value);
            }
            Ldp {
                rd1,
                rd2,
                rn,
                offset,
            } => {
                eff_addr = self.reg(rn).wrapping_add(offset as u64);
                value = self.mem.read_le(eff_addr, 8);
                let second = self.mem.read_le(eff_addr.wrapping_add(8), 8);
                self.set_reg(rd1, value);
                self.set_reg(rd2, second);
                extra.push(second);
            }
            Stp {
                rt1,
                rt2,
                rn,
                offset,
            } => {
                eff_addr = self.reg(rn).wrapping_add(offset as u64);
                value = self.reg(rt1);
                let second = self.reg(rt2);
                self.mem.write_le(eff_addr, 8, value);
                self.mem.write_le(eff_addr.wrapping_add(8), 8, second);
                extra.push(second);
            }
            Ldm { list, rn } => {
                eff_addr = self.reg(rn);
                let mut first = true;
                let mut slot = eff_addr;
                for r in list.iter() {
                    let v = self.mem.read_le(slot, 8);
                    self.set_reg(r, v);
                    if first {
                        value = v;
                        first = false;
                    } else {
                        extra.push(v);
                    }
                    slot = slot.wrapping_add(8);
                }
            }
            Stm { list, rn } => {
                eff_addr = self.reg(rn);
                let mut first = true;
                let mut slot = eff_addr;
                for r in list.iter() {
                    let v = self.reg(r);
                    self.mem.write_le(slot, 8, v);
                    if first {
                        value = v;
                        first = false;
                    } else {
                        extra.push(v);
                    }
                    slot = slot.wrapping_add(8);
                }
            }
            Vld { vd, rn, offset } => {
                eff_addr = self.reg(rn).wrapping_add(offset as u64);
                value = self.mem.read_le(eff_addr, 8);
                let hi = self.mem.read_le(eff_addr.wrapping_add(8), 8);
                self.set_reg(vd, value);
                self.set_reg(Reg::x(vd.index() as u8 + 1), hi);
                extra.push(hi);
            }
            Vst { vs, rn, offset } => {
                eff_addr = self.reg(rn).wrapping_add(offset as u64);
                value = self.reg(vs);
                let hi = self.reg(Reg::x(vs.index() as u8 + 1));
                self.mem.write_le(eff_addr, 8, value);
                self.mem.write_le(eff_addr.wrapping_add(8), 8, hi);
                extra.push(hi);
            }
            B { target } => next_pc = target,
            Bc {
                cond,
                rn,
                rm,
                target,
            } => {
                if cond.eval(self.reg(rn), self.reg(rm)) {
                    next_pc = target;
                }
            }
            Cbz { rn, target } => {
                if self.reg(rn) == 0 {
                    next_pc = target;
                }
            }
            Cbnz { rn, target } => {
                if self.reg(rn) != 0 {
                    next_pc = target;
                }
            }
            Bl { target } => {
                self.set_reg(Reg::LR, pc.wrapping_add(INST_BYTES));
                next_pc = target;
            }
            Ret => next_pc = self.reg(Reg::LR),
            Br { rn } => next_pc = self.reg(rn),
            Blr { rn } => {
                let t = self.reg(rn);
                self.set_reg(Reg::LR, pc.wrapping_add(INST_BYTES));
                next_pc = t;
            }
        }

        self.pc = next_pc;
        TraceRecord {
            seq: 0, // assigned by Trace::push
            pc,
            inst,
            next_pc,
            eff_addr,
            value,
            extra_values: if extra.is_empty() {
                None
            } else {
                Some(extra.into_boxed_slice())
            },
        }
    }
}

/// Streaming record iterator over an [`Emulator`], bounded by a budget.
///
/// Yields exactly what [`Emulator::run`] would trace for the same budget,
/// one record at a time, without buffering.
#[derive(Debug)]
pub struct Records {
    emu: Emulator,
    remaining: u64,
}

impl Records {
    /// The underlying emulator (e.g. to inspect [`Emulator::stopped`]).
    pub fn emulator(&self) -> &Emulator {
        &self.emu
    }

    /// Recovers the emulator and its final architectural state.
    pub fn into_emulator(self) -> Emulator {
        self.emu
    }
}

impl Iterator for Records {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.emu.step_record()
    }
}

fn mask(bytes: u64) -> u64 {
    if bytes >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * bytes)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_isa::{Asm, Cond, MemSize};

    fn run(a: Asm, budget: u64) -> RunOutcome {
        Emulator::new(a.build()).run(budget)
    }

    #[test]
    fn arithmetic_loop_sums() {
        let mut a = Asm::new(0x1000);
        a.mov(Reg::X1, 0); // sum
        a.mov(Reg::X2, 10); // counter
        let top = a.here();
        a.add(Reg::X1, Reg::X1, Reg::X2);
        a.subi(Reg::X2, Reg::X2, 1);
        a.cbnz(Reg::X2, top);
        a.halt();
        let out = run(a, 1000);
        assert_eq!(out.stop, StopReason::Halted);
        assert_eq!(out.regs[Reg::X1.index()], 55);
    }

    #[test]
    fn loads_and_stores_roundtrip_through_memory() {
        let mut a = Asm::new(0x1000);
        a.data_u64(0x8000, &[111, 222]);
        a.mov(Reg::X0, 0x8000);
        a.ldr(Reg::X1, Reg::X0, 8, MemSize::X);
        a.str_(Reg::X1, Reg::X0, 16, MemSize::X);
        a.ldr(Reg::X2, Reg::X0, 16, MemSize::X);
        a.halt();
        let out = run(a, 100);
        assert_eq!(out.regs[Reg::X1.index()], 222);
        assert_eq!(out.regs[Reg::X2.index()], 222);
        let loads: Vec<_> = out.trace.loads().collect();
        assert_eq!(loads[0].addr, 0x8008);
        assert_eq!(loads[1].addr, 0x8010);
    }

    #[test]
    fn ldp_and_vld_fill_extra_values() {
        let mut a = Asm::new(0x1000);
        a.data_u64(0x8000, &[1, 2, 3, 4]);
        a.mov(Reg::X0, 0x8000);
        a.ldp(Reg::X1, Reg::X2, Reg::X0, 0);
        a.vld(Reg::X4, Reg::X0, 16);
        a.halt();
        let out = run(a, 100);
        assert_eq!(out.regs[Reg::X1.index()], 1);
        assert_eq!(out.regs[Reg::X2.index()], 2);
        assert_eq!(out.regs[Reg::X4.index()], 3);
        assert_eq!(out.regs[Reg::X5.index()], 4);
        let recs = out.trace.records();
        let mut buf = [0; lvp_trace::MAX_CHUNKS];
        assert_eq!(recs[1].values(&mut buf), [1, 2]);
        assert_eq!(recs[2].values(&mut buf), [3, 4]);
    }

    #[test]
    fn ldm_stm_transfer_in_ascending_order() {
        let mut a = Asm::new(0x1000);
        a.data_u64(0x8000, &[10, 20, 30]);
        a.mov(Reg::X0, 0x8000);
        a.ldm(&[Reg::X1, Reg::X2, Reg::X3], Reg::X0);
        a.mov(Reg::X0, 0x9000);
        a.stm(&[Reg::X1, Reg::X2, Reg::X3], Reg::X0);
        a.mov(Reg::X0, 0x9000);
        a.ldr(Reg::X4, Reg::X0, 16, MemSize::X);
        a.halt();
        let out = run(a, 100);
        assert_eq!(out.regs[Reg::X1.index()], 10);
        assert_eq!(out.regs[Reg::X3.index()], 30);
        assert_eq!(out.regs[Reg::X4.index()], 30);
    }

    #[test]
    fn call_return_links_lr() {
        let mut a = Asm::new(0x1000);
        let f = a.new_label();
        a.bl(f); // 0x1000
        a.mov(Reg::X9, 7); // 0x1004 (after return)
        a.halt(); // 0x1008
        a.place(f);
        a.mov(Reg::X8, 3);
        a.ret();
        let out = run(a, 100);
        assert_eq!(out.stop, StopReason::Halted);
        assert_eq!(out.regs[Reg::X8.index()], 3);
        assert_eq!(out.regs[Reg::X9.index()], 7);
        // The BL record is a taken branch; RET returns to 0x1004.
        let recs = out.trace.records();
        assert!(recs[0].taken());
        let ret = recs
            .iter()
            .find(|r| matches!(r.inst, Instruction::Ret))
            .unwrap();
        assert_eq!(ret.next_pc, 0x1004);
    }

    #[test]
    fn conditional_branch_both_ways() {
        let mut a = Asm::new(0x1000);
        let skip = a.new_label();
        a.mov(Reg::X1, 5);
        a.mov(Reg::X2, 5);
        a.bc(Cond::Ne, Reg::X1, Reg::X2, skip); // not taken
        a.mov(Reg::X3, 1);
        a.place(skip);
        a.halt();
        let out = run(a, 100);
        assert_eq!(out.regs[Reg::X3.index()], 1);
        let bc = &out.trace.records()[2];
        assert!(!bc.taken());
    }

    #[test]
    fn budget_exhaustion_reported() {
        let mut a = Asm::new(0x1000);
        let top = a.here();
        a.b(top);
        let out = run(a, 50);
        assert_eq!(out.stop, StopReason::BudgetExhausted);
        assert_eq!(out.trace.len(), 50);
    }

    #[test]
    fn falling_off_text_reported() {
        let mut a = Asm::new(0x1000);
        a.nop();
        let out = run(a, 10);
        assert_eq!(out.stop, StopReason::FellOffText);
    }

    #[test]
    fn subword_store_masks_value() {
        let mut a = Asm::new(0x1000);
        a.mov(Reg::X1, 0x1234_5678_9abc_def0);
        a.mov(Reg::X0, 0x8000);
        a.str_(Reg::X1, Reg::X0, 0, MemSize::W);
        a.ldr(Reg::X2, Reg::X0, 0, MemSize::X);
        a.halt();
        let out = run(a, 100);
        assert_eq!(out.regs[Reg::X2.index()], 0x9abc_def0);
    }

    #[test]
    fn indirect_branch_through_register() {
        let mut a = Asm::new(0x1000);
        a.mov(Reg::X5, 0x100c);
        a.br(Reg::X5); // 0x1004
        a.nop(); // 0x1008 skipped
        a.halt(); // 0x100c
        let out = run(a, 100);
        assert_eq!(out.stop, StopReason::Halted);
        assert_eq!(out.trace.len(), 2);
    }

    #[test]
    fn streaming_matches_batch_run() {
        // step_record() must reproduce run()'s records, stop reason and
        // final registers exactly — including across block boundaries,
        // jumps into the middle of a block, and halt.
        let build = || {
            let mut a = Asm::new(0x1000);
            a.data_u64(0x8000, &[3, 1, 4, 1, 5]);
            a.mov(Reg::X0, 0x8000);
            a.mov(Reg::X2, 5);
            let top = a.here();
            a.ldr(Reg::X1, Reg::X0, 0, MemSize::X);
            a.add(Reg::X3, Reg::X3, Reg::X1);
            a.addi(Reg::X0, Reg::X0, 8);
            a.subi(Reg::X2, Reg::X2, 1);
            a.cbnz(Reg::X2, top);
            a.halt();
            a.build()
        };
        for budget in [0u64, 3, 17, 1000] {
            let batch = Emulator::new(build()).run(budget);
            let mut streamed = Emulator::new(build());
            let mut recs = Vec::new();
            while (recs.len() as u64) < budget {
                match streamed.step_record() {
                    Some(r) => recs.push(r),
                    None => break,
                }
            }
            assert_eq!(recs.as_slice(), batch.trace.records(), "budget {budget}");
            assert_eq!(streamed.regs, batch.regs, "budget {budget}");
            match batch.stop {
                StopReason::BudgetExhausted => assert_eq!(streamed.stopped(), None),
                stop => assert_eq!(streamed.stopped(), Some(stop)),
            }
        }
    }

    #[test]
    fn jump_into_block_interior_builds_suffix_block() {
        let mut a = Asm::new(0x1000);
        a.mov(Reg::X5, 0x100c); // target: middle of the straight-line run
        a.br(Reg::X5);
        a.mov(Reg::X1, 1); // 0x1008, skipped
        a.mov(Reg::X2, 2); // 0x100c, the jump target
        a.mov(Reg::X3, 3); // 0x1010
        a.halt();
        let out = Emulator::new(a.build()).run(100);
        assert_eq!(out.stop, StopReason::Halted);
        assert_eq!(out.regs[Reg::X1.index()], 0);
        assert_eq!(out.regs[Reg::X2.index()], 2);
        assert_eq!(out.regs[Reg::X3.index()], 3);
    }

    #[test]
    fn records_iterator_bounds_and_exposes_state() {
        let mut a = Asm::new(0x1000);
        let top = a.here();
        a.addi(Reg::X1, Reg::X1, 1);
        a.b(top);
        let mut it = Emulator::new(a.build()).records(7);
        assert_eq!(it.by_ref().count(), 7);
        let emu = it.into_emulator();
        assert_eq!(emu.stopped(), None);
        assert_eq!(emu.reg(Reg::X1), 4); // 7 records = 4 adds + 3 branches
    }

    #[test]
    fn deterministic_replay() {
        let build = || {
            let mut a = Asm::new(0x1000);
            a.data_u64(0x8000, &[5, 6, 7]);
            a.mov(Reg::X0, 0x8000);
            let top = a.here();
            a.ldr(Reg::X1, Reg::X0, 0, MemSize::X);
            a.addi(Reg::X0, Reg::X0, 8);
            a.subi(Reg::X1, Reg::X1, 5);
            a.cbz(Reg::X1, top);
            a.halt();
            a.build()
        };
        let t1 = Emulator::new(build()).run(1000).trace;
        let t2 = Emulator::new(build()).run(1000).trace;
        assert_eq!(t1.records(), t2.records());
    }
}
