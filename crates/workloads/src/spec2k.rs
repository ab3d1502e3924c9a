//! SPEC2K-styled kernels: `perlbmk`, `gzip`, `vortex`, `gap`, `crafty`.

use crate::util::{rand_u64s, CODE_BASE, DATA_BASE};
use crate::{Suite, Workload};
use lvp_isa::{Asm, MemSize, Program, Reg};

/// The SPEC2K-styled workloads.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload::new(
            "perlbmk",
            Suite::Spec2k,
            "bytecode interpreter: indirect dispatch through a jump table, loads feeding branches",
            perlbmk,
        ),
        Workload::new(
            "gzip",
            Suite::Spec2k,
            "LZ-style hash-chain compressor: head-table load/store conflicts, window copies",
            gzip,
        ),
        Workload::new(
            "vortex",
            Suite::Spec2k,
            "object-database: LDM record fetches, hash-probe then field update",
            vortex,
        ),
        Workload::new(
            "gap",
            Suite::Spec2k,
            "permutation algebra: double-indirect gathers",
            gap,
        ),
        Workload::new(
            "crafty",
            Suite::Spec2k,
            "bitboard engine: ALU-dense with small-table lookups",
            crafty,
        ),
    ]
}

/// Bytecode interpreter modelled on perlbmk's opcode dispatch loop.
///
/// Register plan: x20 = bytecode base, x21 = bytecode index, x22 = jump
/// table base, x23 = VM slot base, x24 = VM stack base, x25 = VM stack
/// index, x26 = bytecode length, x27 = accumulator.
fn perlbmk() -> Program {
    const N_OPS: usize = 9;
    const PROG_LEN: usize = 96;
    let mut a = Asm::new(CODE_BASE);

    let bytecode = DATA_BASE;
    let jump_table = DATA_BASE + 0x1000;
    let vm_slots = DATA_BASE + 0x2000;
    let vm_stack = DATA_BASE + 0x3000;

    // Deterministic random bytecode; opcode 5 (the "jump" op) appears too,
    // adding data-dependent control over the bytecode index.
    let code: Vec<u64> = rand_u64s(0x9e71, PROG_LEN, N_OPS as u64);
    a.data_u64(bytecode, &code);
    a.data_u64(vm_slots, &rand_u64s(0x11, 16, 1 << 30));
    // VM globals beyond the slots: [0x88]=stack limit, [0x90]=hash seed,
    // [0x98]=jump base, [0xa0]=flags — constants the handlers reload.
    a.data_u64(vm_slots + 0x88, &[64, 0x2545, 3, 1]);

    // Entry: initialize VM registers.
    a.mov(Reg::X20, bytecode);
    a.mov(Reg::X21, 0);
    a.mov(Reg::X22, jump_table);
    a.mov(Reg::X23, vm_slots);
    a.mov(Reg::X24, vm_stack);
    a.mov(Reg::X25, 0);
    a.mov(Reg::X26, PROG_LEN as i64 as u64);
    a.mov(Reg::X27, 0);

    // Dispatch loop.
    let top = a.here();
    let no_wrap = a.new_label();
    a.blt(Reg::X21, Reg::X26, no_wrap);
    a.mov(Reg::X21, 0);
    a.place(no_wrap);
    a.lsli(Reg::X1, Reg::X21, 3);
    a.ldr_idx(Reg::X2, Reg::X20, Reg::X1, MemSize::X); // opcode fetch
    a.addi(Reg::X21, Reg::X21, 1);
    a.lsli(Reg::X3, Reg::X2, 3);
    a.ldr_idx(Reg::X4, Reg::X22, Reg::X3, MemSize::X); // handler address
                                                       // VM tick: fixed-address read-modify-write per dispatched op.
    a.ldr(Reg::X5, Reg::X23, 0x80, MemSize::X);
    a.addi(Reg::X5, Reg::X5, 1);
    a.str_(Reg::X5, Reg::X23, 0x80, MemSize::X);
    a.blr(Reg::X4); // indirect dispatch
    a.b(top);

    // Handlers; each ends with ret. Addresses recorded for the jump table.
    let mut handlers = Vec::with_capacity(N_OPS);

    // Each handler starts with a three-load prologue reading VM globals.
    // The loads are placed (with nop padding) so that the bit-2 pattern of
    // their PCs spells the handler id — real interpreter handlers differ in
    // exactly this way, and it is what lets 16 bits of load-path history
    // pinpoint the bytecode position (paper §3.1).
    let handler_prologue = |a: &mut Asm, id: u64| {
        for bit in 0..3u64 {
            let want = (id >> bit) & 1; // desired bit 2 of the load PC
            if ((a.pc() >> 2) & 1) != want {
                a.nop();
            }
            a.ldr(Reg::X9, Reg::X23, 0x88 + 8 * (bit as i64 % 4), MemSize::X);
            a.add(Reg::X27, Reg::X27, Reg::X9);
        }
    };

    // 0: PUSH-IMM — push a constant derived from the accumulator.
    handlers.push(a.pc());
    handler_prologue(&mut a, 0);
    a.ldr(Reg::X7, Reg::X23, 0x88, MemSize::X); // stack limit (constant)
    a.subi(Reg::X7, Reg::X7, 1);
    a.and(Reg::X5, Reg::X25, Reg::X7);
    a.lsli(Reg::X5, Reg::X5, 3);
    a.addi(Reg::X27, Reg::X27, 17);
    a.str_idx(Reg::X27, Reg::X24, Reg::X5, MemSize::X);
    a.addi(Reg::X25, Reg::X25, 1);
    a.ret();

    // 1: POP-ADD — pop two, push sum.
    handlers.push(a.pc());
    handler_prologue(&mut a, 1);
    a.subi(Reg::X25, Reg::X25, 1);
    a.andi(Reg::X5, Reg::X25, 63);
    a.lsli(Reg::X5, Reg::X5, 3);
    a.ldr_idx(Reg::X6, Reg::X24, Reg::X5, MemSize::X);
    a.add(Reg::X27, Reg::X27, Reg::X6);
    a.ret();

    // 2: LOAD-VAR — read a VM slot selected by the accumulator.
    handlers.push(a.pc());
    handler_prologue(&mut a, 2);
    a.andi(Reg::X5, Reg::X27, 15);
    a.lsli(Reg::X5, Reg::X5, 3);
    a.ldr_idx(Reg::X6, Reg::X23, Reg::X5, MemSize::X);
    a.eor(Reg::X27, Reg::X27, Reg::X6);
    a.ret();

    // 3: STORE-VAR — write a VM slot.
    handlers.push(a.pc());
    handler_prologue(&mut a, 3);
    a.andi(Reg::X5, Reg::X27, 15);
    a.lsli(Reg::X5, Reg::X5, 3);
    a.str_idx(Reg::X27, Reg::X23, Reg::X5, MemSize::X);
    a.ret();

    // 4: ALU — mix the accumulator with the VM hash seed.
    handlers.push(a.pc());
    handler_prologue(&mut a, 4);
    a.ldr(Reg::X7, Reg::X23, 0x90, MemSize::X); // hash seed (constant)
    a.lsri(Reg::X5, Reg::X27, 7);
    a.eor(Reg::X27, Reg::X27, Reg::X5);
    a.alu(lvp_isa::AluOp::Mul, Reg::X27, Reg::X27, Reg::X7);
    a.ret();

    // 5: JUMP — conditional relative jump in bytecode (data-dependent).
    handlers.push(a.pc());
    handler_prologue(&mut a, 5);
    a.ldr(Reg::X7, Reg::X23, 0x98, MemSize::X); // jump scale (constant)
    let no_jump = a.new_label();
    a.andi(Reg::X5, Reg::X27, 7);
    a.cbnz(Reg::X5, no_jump);
    a.andi(Reg::X6, Reg::X27, 31);
    a.add(Reg::X6, Reg::X6, Reg::X7);
    a.add(Reg::X21, Reg::X21, Reg::X6);
    a.place(no_jump);
    a.ret();

    // 6: LOAD-PAIR — interpreter reads a 16-byte VM cell.
    handlers.push(a.pc());
    handler_prologue(&mut a, 6);
    a.ldp(Reg::X6, Reg::X7, Reg::X23, 0);
    a.add(Reg::X27, Reg::X27, Reg::X6);
    a.eor(Reg::X27, Reg::X27, Reg::X7);
    a.ret();

    // 7: CMP — compare accumulator against a slot and branch internally.
    handlers.push(a.pc());
    handler_prologue(&mut a, 7);
    a.ldr(Reg::X6, Reg::X23, 8, MemSize::X);
    let ge = a.new_label();
    a.bge(Reg::X27, Reg::X6, ge);
    a.addi(Reg::X27, Reg::X27, 3);
    a.place(ge);
    a.subi(Reg::X27, Reg::X27, 1);
    a.ret();

    // 8: NOP-ish bookkeeping.
    handlers.push(a.pc());
    handler_prologue(&mut a, 8);
    a.ldr(Reg::X7, Reg::X23, 0xa0, MemSize::X); // VM flags (constant)
    a.add(Reg::X27, Reg::X27, Reg::X7);
    a.ret();

    a.data_u64(jump_table, &handlers);
    a.build()
}

/// LZ-style hash-chain kernel modelled on gzip's deflate inner loop.
///
/// The `head` table is read then written at the same index — when a hash
/// recurs, the load sees a location a (usually committed) store changed:
/// the paper's Figure 1 conflict class.
fn gzip() -> Program {
    const INPUT_LEN: u64 = 4096;
    const HASH_SIZE: u64 = 512;
    let mut a = Asm::new(CODE_BASE);

    let input = DATA_BASE;
    let head = DATA_BASE + 0x1_0000;
    let window = DATA_BASE + 0x2_0000;

    // Compressible input: like text, a handful of symbols dominate, so hash
    // chains repeat heavily.
    let raw: Vec<u64> = rand_u64s(0xf00d, INPUT_LEN as usize, 24);
    let as_bytes: Vec<u8> = raw
        .iter()
        .map(|&b| if b < 18 { (b % 4) as u8 } else { b as u8 })
        .collect();
    a.data_bytes(input, &as_bytes);

    let bitbuf = DATA_BASE + 0x3_0000; // global bit-output buffer
    let frame = DATA_BASE + 0x4_0000; // spilled base pointers
    a.data_u64(frame, &[input, head, window, bitbuf]);

    a.mov(Reg::X29, frame);
    a.mov(Reg::X21, 0); // position

    let top = a.here();
    // Reload spilled bases (fixed address & value: the loads value
    // prediction lives on in register-pressure-limited compiled code).
    a.ldr(Reg::X20, Reg::X29, 0, MemSize::X);
    a.ldr(Reg::X22, Reg::X29, 8, MemSize::X);
    a.ldr(Reg::X23, Reg::X29, 16, MemSize::X);
    a.ldr(Reg::X26, Reg::X29, 24, MemSize::X);
    // pos wrap
    let no_wrap = a.new_label();
    a.mov(Reg::X1, INPUT_LEN - 8);
    a.blt(Reg::X21, Reg::X1, no_wrap);
    a.mov(Reg::X21, 0);
    a.place(no_wrap);

    // Hash two bytes: h = (b0*33 + b1) & (HASH_SIZE-1)
    a.ldr_idx(Reg::X2, Reg::X20, Reg::X21, MemSize::B);
    a.addi(Reg::X3, Reg::X21, 1);
    a.ldr_idx(Reg::X4, Reg::X20, Reg::X3, MemSize::B);
    a.lsli(Reg::X5, Reg::X2, 5);
    a.add(Reg::X5, Reg::X5, Reg::X2);
    a.add(Reg::X5, Reg::X5, Reg::X4);
    a.andi(Reg::X5, Reg::X5, (HASH_SIZE - 1) as i64);
    a.lsli(Reg::X5, Reg::X5, 3);

    // prev = head[h]; head[h] = pos   (load -> store same address)
    a.ldr_idx(Reg::X6, Reg::X22, Reg::X5, MemSize::X);
    a.str_idx(Reg::X21, Reg::X22, Reg::X5, MemSize::X);

    // If prev is close, "match": copy 16 bytes from window[prev] to
    // window[pos] (strided LDP/STP pair).
    let no_match = a.new_label();
    a.sub(Reg::X7, Reg::X21, Reg::X6);
    a.mov(Reg::X8, 64);
    a.bge(Reg::X7, Reg::X8, no_match);
    a.lsli(Reg::X9, Reg::X6, 3);
    a.add(Reg::X9, Reg::X9, Reg::X23);
    a.ldp(Reg::X10, Reg::X11, Reg::X9, 0);
    a.lsli(Reg::X12, Reg::X21, 3);
    a.add(Reg::X12, Reg::X12, Reg::X23);
    a.stp(Reg::X10, Reg::X11, Reg::X12, 0);
    a.place(no_match);

    // Emit "bits": fixed-address read-modify-write every position. The loop
    // body is short, so the conflicting store is usually still in flight
    // when the next read is fetched (Figure 1's shaded class).
    a.ldr(Reg::X13, Reg::X26, 0, MemSize::X);
    a.lsli(Reg::X13, Reg::X13, 1);
    a.eor(Reg::X13, Reg::X13, Reg::X6);
    a.str_(Reg::X13, Reg::X26, 0, MemSize::X);

    a.addi(Reg::X21, Reg::X21, 1);
    a.b(top);
    a.build()
}

/// Object-database kernel modelled on vortex: fixed-layout records fetched
/// with load-multiple, then one field rewritten.
fn vortex() -> Program {
    const N_RECORDS: u64 = 256; // 64B records
    let mut a = Asm::new(CODE_BASE);

    let records = DATA_BASE;
    let index = DATA_BASE + 0x1_0000;

    a.data_u64(
        records,
        &rand_u64s(0xbeef, (N_RECORDS * 8) as usize, 1 << 20),
    );
    a.data_u64(index, &rand_u64s(0xcafe, 1024, N_RECORDS));

    let frame = DATA_BASE + 0x2_0000;
    a.data_u64(frame, &[records, index]);
    a.mov(Reg::X29, frame);
    a.mov(Reg::X22, 0); // query counter

    let top = a.here();
    a.ldr(Reg::X20, Reg::X29, 0, MemSize::X); // records base (spill reload)
    a.ldr(Reg::X21, Reg::X29, 8, MemSize::X); // index base
    a.andi(Reg::X1, Reg::X22, 1023);
    a.lsli(Reg::X1, Reg::X1, 3);
    a.ldr_idx(Reg::X2, Reg::X21, Reg::X1, MemSize::X); // record id from index
    a.lsli(Reg::X3, Reg::X2, 6); // *64 bytes
    a.add(Reg::X4, Reg::X20, Reg::X3);
    a.ldm(&[Reg::X5, Reg::X6, Reg::X7, Reg::X8], Reg::X4); // record header
    a.add(Reg::X9, Reg::X5, Reg::X6);
    a.eor(Reg::X9, Reg::X9, Reg::X7);
    let skip = a.new_label();
    a.cbz(Reg::X8, skip);
    a.str_(Reg::X9, Reg::X4, 32, MemSize::X); // update field 4
    a.place(skip);
    a.addi(Reg::X22, Reg::X22, 1);
    a.b(top);
    a.build()
}

/// Permutation-algebra kernel modelled on gap: `out[i] = p[q[i]]` gathers.
fn gap() -> Program {
    const N: u64 = 512;
    let mut a = Asm::new(CODE_BASE);

    let p = DATA_BASE;
    let q = DATA_BASE + 0x4000;
    let out = DATA_BASE + 0x8000;

    a.data_u64(p, &crate::util::permutation(0x6a, N as usize));
    a.data_u64(q, &crate::util::permutation(0x6b, N as usize));

    let frame = DATA_BASE + 0xc000;
    a.data_u64(frame, &[p, q, out]);
    a.mov(Reg::X29, frame);
    a.mov(Reg::X23, 0); // i
    a.mov(Reg::X24, N);

    let outer = a.here();
    a.mov(Reg::X23, 0);
    let inner = a.here();
    a.ldr(Reg::X20, Reg::X29, 0, MemSize::X); // p base (spill reload)
    a.ldr(Reg::X21, Reg::X29, 8, MemSize::X); // q base
    a.ldr(Reg::X22, Reg::X29, 16, MemSize::X); // out base
    a.lsli(Reg::X1, Reg::X23, 3);
    a.ldr_idx(Reg::X2, Reg::X21, Reg::X1, MemSize::X); // q[i] (strided)
    a.lsli(Reg::X3, Reg::X2, 3);
    a.ldr_idx(Reg::X4, Reg::X20, Reg::X3, MemSize::X); // p[q[i]] (gather)
    a.str_idx(Reg::X4, Reg::X22, Reg::X1, MemSize::X);
    a.addi(Reg::X23, Reg::X23, 1);
    a.blt(Reg::X23, Reg::X24, inner);
    a.b(outer);
    a.build()
}

/// Bitboard kernel modelled on crafty: dense ALU with small lookup tables
/// and a popcount-style scan loop.
fn crafty() -> Program {
    let mut a = Asm::new(CODE_BASE);

    let table = DATA_BASE;
    let piece_sq = DATA_BASE + 0x1000; // piece-square table
    let nodes = DATA_BASE + 0x3000; // global node counter
    a.data_u64(table, &rand_u64s(0xc4af, 256, u64::MAX));
    a.data_u64(piece_sq, &rand_u64s(0xc4b0, 256, 512));

    a.mov(Reg::X20, table);
    a.mov(Reg::X21, 0x9e3779b97f4a7c15);
    a.mov(Reg::X22, 0);
    a.mov(Reg::X24, piece_sq);
    a.mov(Reg::X25, nodes);

    let top = a.here();
    // Mix a "position hash".
    a.lsri(Reg::X1, Reg::X21, 29);
    a.eor(Reg::X21, Reg::X21, Reg::X1);
    a.alui(lvp_isa::AluOp::Mul, Reg::X21, Reg::X21, 0x5851);
    // Attack-table and piece-square lookups.
    a.andi(Reg::X2, Reg::X21, 255);
    a.lsli(Reg::X2, Reg::X2, 3);
    a.ldr_idx(Reg::X3, Reg::X20, Reg::X2, MemSize::X);
    a.lsri(Reg::X4, Reg::X21, 8);
    a.andi(Reg::X4, Reg::X4, 255);
    a.lsli(Reg::X4, Reg::X4, 3);
    a.ldr_idx(Reg::X5, Reg::X20, Reg::X4, MemSize::X);
    a.ldr_idx(Reg::X9, Reg::X24, Reg::X2, MemSize::X);
    a.ldr_idx(Reg::X10, Reg::X24, Reg::X4, MemSize::X);
    a.add(Reg::X22, Reg::X22, Reg::X9);
    a.add(Reg::X22, Reg::X22, Reg::X10);
    a.and(Reg::X6, Reg::X3, Reg::X5);
    // Global node counter: read per node, written back every 16th node.
    a.ldr(Reg::X11, Reg::X25, 0, MemSize::X);
    a.addi(Reg::X11, Reg::X11, 1);
    a.andi(Reg::X12, Reg::X11, 15);
    let no_wb = a.new_label();
    a.cbnz(Reg::X12, no_wb);
    a.str_(Reg::X11, Reg::X25, 0, MemSize::X);
    a.place(no_wb);
    // Scan-bits loop over the low 16 bits (bounded, branchy).
    a.andi(Reg::X6, Reg::X6, 0xffff);
    let scan = a.here();
    let done = a.new_label();
    a.cbz(Reg::X6, done);
    a.andi(Reg::X7, Reg::X6, 15);
    a.add(Reg::X22, Reg::X22, Reg::X7);
    a.lsri(Reg::X6, Reg::X6, 4);
    a.b(scan);
    a.place(done);
    a.b(top);
    a.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_emu::Emulator;

    #[test]
    fn perlbmk_dispatches_indirect_branches() {
        let t = Emulator::new(perlbmk()).run(20_000).trace;
        let indirect = t
            .records()
            .iter()
            .filter(|r| matches!(r.inst, lvp_isa::Instruction::Blr { .. }))
            .count();
        assert!(
            indirect > 500,
            "interpreter should dispatch often, got {indirect}"
        );
        // Dispatch targets should be polymorphic.
        let mut targets: Vec<u64> = t
            .records()
            .iter()
            .filter(|r| matches!(r.inst, lvp_isa::Instruction::Blr { .. }))
            .map(|r| r.next_pc)
            .collect();
        targets.sort_unstable();
        targets.dedup();
        assert!(
            targets.len() >= 5,
            "expected many handlers, got {}",
            targets.len()
        );
    }

    #[test]
    fn gzip_rereads_stored_head_entries() {
        let t = Emulator::new(gzip()).run(50_000).trace;
        let mut p = lvp_trace::ConflictProfiler::new(224);
        t.records().iter().for_each(|r| p.push(r));
        let p = p.finish();
        assert!(
            p.total_fraction() > 0.02,
            "head-table conflicts expected, got {}",
            p.total_fraction()
        );
    }

    #[test]
    fn vortex_uses_ldm() {
        let t = Emulator::new(vortex()).run(20_000).trace;
        let ldm = t
            .records()
            .iter()
            .filter(|r| matches!(r.inst, lvp_isa::Instruction::Ldm { .. }))
            .count();
        assert!(ldm > 500, "got {ldm}");
    }

    #[test]
    fn gap_and_crafty_run() {
        for p in [gap(), crafty()] {
            let t = Emulator::new(p).run(10_000).trace;
            assert_eq!(t.len(), 10_000);
        }
    }
}
