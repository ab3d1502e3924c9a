//! EEMBC automotive-suite kernels: `a2time`, `tblook`, `canrdr`, `rspeed`,
//! `pntrch`, `idctrn` — the short-running embedded codes the paper's pool
//! includes ("for short-running benchmarks (i.e., EEMBC) we simulate ...
//! until the benchmark completes", §4.1; ours loop indefinitely and are cut
//! by the budget).

use crate::util::{linked_ring, rand_u64s, CODE_BASE, DATA_BASE};
use crate::{Suite, Workload};
use lvp_isa::{Asm, MemSize, Program, Reg};

/// The automotive workloads.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload::new(
            "a2time",
            Suite::Eembc,
            "angle-to-time: tooth-wheel interval tables, fixed calibration loads",
            a2time,
        ),
        Workload::new(
            "tblook",
            Suite::Eembc,
            "table lookup and interpolation over calibration maps",
            tblook,
        ),
        Workload::new(
            "canrdr",
            Suite::Eembc,
            "CAN frame decode: byte unpacking, id-based dispatch",
            canrdr,
        ),
        Workload::new(
            "rspeed",
            Suite::Eembc,
            "road-speed calculation: pulse deltas, divides",
            rspeed,
        ),
        Workload::new(
            "pntrch",
            Suite::Eembc,
            "pointer chase over a static record ring",
            pntrch,
        ),
        Workload::new(
            "idctrn",
            Suite::Eembc,
            "inverse DCT (integer), row-column passes",
            idctrn,
        ),
    ]
}

/// Angle-to-time: convert tooth-wheel pulse angles using fixed calibration
/// cells (classic read-mostly automotive state).
fn a2time() -> Program {
    const TEETH: u64 = 64;
    let mut a = Asm::new(CODE_BASE);

    let calib = DATA_BASE; // [rpm_scale, tooth_angle, window_open, window_close]
    let pulses = DATA_BASE + 0x1000;
    a.data_u64(calib, &[37, 11, 100, 900]);
    a.data_u64(pulses, &rand_u64s(0xa21, TEETH as usize, 1 << 16));

    a.mov(Reg::X20, calib);
    a.mov(Reg::X21, pulses);
    a.mov(Reg::X22, 0); // tooth index
    a.mov(Reg::X24, 0); // accumulated time

    let top = a.here();
    // Calibration loads: fixed addresses, constant values.
    a.ldr(Reg::X1, Reg::X20, 0, MemSize::X); // rpm scale
    a.ldr(Reg::X2, Reg::X20, 8, MemSize::X); // tooth angle
    a.ldr(Reg::X3, Reg::X20, 16, MemSize::X); // window open
    a.andi(Reg::X22, Reg::X22, (TEETH - 1) as i64);
    a.lsli(Reg::X4, Reg::X22, 3);
    a.ldr_idx(Reg::X5, Reg::X21, Reg::X4, MemSize::X); // pulse interval
    a.mul(Reg::X6, Reg::X5, Reg::X1);
    a.mul(Reg::X7, Reg::X2, Reg::X5);
    a.add(Reg::X6, Reg::X6, Reg::X7);
    // Window check (data-dependent branch resolved by the loads).
    let outside = a.new_label();
    a.blt(Reg::X6, Reg::X3, outside);
    a.add(Reg::X24, Reg::X24, Reg::X6);
    a.place(outside);
    a.addi(Reg::X22, Reg::X22, 1);
    a.b(top);
    a.build()
}

/// Calibration-map lookup with linear interpolation between cells.
fn tblook() -> Program {
    const MAP: u64 = 256;
    let mut a = Asm::new(CODE_BASE);

    let map = DATA_BASE;
    a.data_u64(map, &rand_u64s(0x7b10, MAP as usize + 1, 1 << 12));

    a.mov(Reg::X20, map);
    a.mov(Reg::X21, 0x6c078965); // sensor LCG
    a.mov(Reg::X24, 0);

    let top = a.here();
    a.alui(lvp_isa::AluOp::Mul, Reg::X21, Reg::X21, 0x5851f42d4c957f2d);
    a.alui(lvp_isa::AluOp::Add, Reg::X21, Reg::X21, 0x3039);
    a.lsri(Reg::X1, Reg::X21, 36);
    a.andi(Reg::X2, Reg::X1, (MAP - 1) as i64); // cell index
    a.andi(Reg::X3, Reg::X1, 0xff); // fraction
    a.lsli(Reg::X4, Reg::X2, 3);
    a.add(Reg::X5, Reg::X20, Reg::X4);
    a.ldp(Reg::X6, Reg::X7, Reg::X5, 0); // y0, y1 (adjacent cells)
                                         // y0 + (y1 - y0) * frac / 256
    a.sub(Reg::X8, Reg::X7, Reg::X6);
    a.mul(Reg::X8, Reg::X8, Reg::X3);
    a.lsri(Reg::X8, Reg::X8, 8);
    a.add(Reg::X8, Reg::X8, Reg::X6);
    a.add(Reg::X24, Reg::X24, Reg::X8);
    a.b(top);
    a.build()
}

/// CAN frame decoder: unpack bytes from a frame ring and dispatch on the
/// message id through a handler table.
fn canrdr() -> Program {
    const FRAMES: u64 = 4096; // 16B frames: [id, payload] — a long message log
    let mut a = Asm::new(CODE_BASE);

    let frames = DATA_BASE;
    let jt = DATA_BASE + 0x2_0000; // past the 64KB frame log
    let state = DATA_BASE + 0x2_1000; // per-message-type state cells
    let mut words = Vec::new();
    let ids = rand_u64s(0xca1, FRAMES as usize, 4);
    let payloads = rand_u64s(0xca2, FRAMES as usize, u64::MAX);
    for i in 0..FRAMES as usize {
        words.push(ids[i]);
        words.push(payloads[i]);
    }
    a.data_u64(frames, &words);

    a.mov(Reg::X20, frames);
    a.mov(Reg::X21, jt);
    a.mov(Reg::X25, state);
    a.mov(Reg::X22, 0); // frame cursor
    a.mov(Reg::X24, 0); // checksum

    let top = a.here();
    a.andi(Reg::X22, Reg::X22, (FRAMES - 1) as i64);
    a.lsli(Reg::X1, Reg::X22, 4);
    a.add(Reg::X2, Reg::X20, Reg::X1);
    a.ldp(Reg::X3, Reg::X4, Reg::X2, 0); // id, payload
    a.lsli(Reg::X5, Reg::X3, 3);
    a.ldr_idx(Reg::X6, Reg::X21, Reg::X5, MemSize::X); // handler
    a.blr(Reg::X6);
    a.addi(Reg::X22, Reg::X22, 1);
    a.b(top);

    let mut handlers = Vec::new();
    // ENGINE: accumulate rpm byte; the state cell is written back on every
    // eighth frame only (read-mostly).
    handlers.push(a.pc());
    a.andi(Reg::X7, Reg::X4, 0xff);
    a.ldr(Reg::X8, Reg::X25, 0, MemSize::X);
    a.add(Reg::X8, Reg::X8, Reg::X7);
    a.andi(Reg::X9, Reg::X22, 7);
    let no_wb = a.new_label();
    a.cbnz(Reg::X9, no_wb);
    a.str_(Reg::X8, Reg::X25, 0, MemSize::X);
    a.place(no_wb);
    a.ret();
    // WHEEL: max of wheel-speed nibbles.
    handlers.push(a.pc());
    a.lsri(Reg::X7, Reg::X4, 8);
    a.andi(Reg::X7, Reg::X7, 0xffff);
    a.ldr(Reg::X8, Reg::X25, 8, MemSize::X);
    let keep = a.new_label();
    a.blt(Reg::X7, Reg::X8, keep);
    a.str_(Reg::X7, Reg::X25, 8, MemSize::X);
    a.place(keep);
    a.ret();
    // DIAG: xor into the checksum.
    handlers.push(a.pc());
    a.eor(Reg::X24, Reg::X24, Reg::X4);
    a.ret();
    // HEARTBEAT.
    handlers.push(a.pc());
    a.addi(Reg::X24, Reg::X24, 1);
    a.ret();
    a.data_u64(jt, &handlers);
    a.build()
}

/// Road speed: divide pulse deltas by a calibration divisor (exercises the
/// long-latency integer divider).
fn rspeed() -> Program {
    const PULSES: u64 = 256;
    let mut a = Asm::new(CODE_BASE);

    let pulses = DATA_BASE;
    let calib = DATA_BASE + 0x2000;
    a.data_u64(pulses, &rand_u64s(0x45d, PULSES as usize, 1 << 20));
    a.data_u64(calib, &[977]);

    a.mov(Reg::X20, pulses);
    a.mov(Reg::X21, calib);
    a.mov(Reg::X22, 0);
    a.mov(Reg::X24, 0);

    let top = a.here();
    a.ldr(Reg::X1, Reg::X21, 0, MemSize::X); // divisor (constant)
    a.andi(Reg::X22, Reg::X22, (PULSES - 2) as i64);
    a.lsli(Reg::X2, Reg::X22, 3);
    a.add(Reg::X3, Reg::X20, Reg::X2);
    a.ldp(Reg::X4, Reg::X5, Reg::X3, 0); // adjacent pulse timestamps
    a.sub(Reg::X6, Reg::X5, Reg::X4);
    a.alu(lvp_isa::AluOp::Div, Reg::X7, Reg::X6, Reg::X1);
    a.add(Reg::X24, Reg::X24, Reg::X7);
    a.addi(Reg::X22, Reg::X22, 1);
    a.b(top);
    a.build()
}

/// EEMBC's pointer-chase benchmark: walk a static ring of records.
fn pntrch() -> Program {
    const NODES: usize = 512;
    const NODE_BYTES: u64 = 16;
    let mut a = Asm::new(CODE_BASE);

    let ring = DATA_BASE;
    a.data_u64(ring, &linked_ring(0x9172, ring, NODES, NODE_BYTES));

    a.mov(Reg::X20, ring);
    a.mov(Reg::X24, 0);

    let top = a.here();
    a.ldr(Reg::X1, Reg::X20, 0, MemSize::X); // next
    a.ldr(Reg::X2, Reg::X20, 8, MemSize::X); // payload
    a.add(Reg::X24, Reg::X24, Reg::X2);
    a.mov_r(Reg::X20, Reg::X1);
    a.b(top);
    a.build()
}

/// Integer inverse DCT over 8×8 blocks (row pass only, fixed-point).
fn idctrn() -> Program {
    const BLOCKS: u64 = 32;
    let mut a = Asm::new(CODE_BASE);

    let blocks = DATA_BASE;
    a.data_u64(blocks, &rand_u64s(0x1dc7, (BLOCKS * 64) as usize, 1 << 10));

    a.mov(Reg::X20, blocks);
    a.mov(Reg::X21, 0); // block

    let top = a.here();
    a.andi(Reg::X1, Reg::X21, (BLOCKS - 1) as i64);
    a.lsli(Reg::X1, Reg::X1, 9);
    a.add(Reg::X2, Reg::X20, Reg::X1);
    a.mov(Reg::X3, 0); // row
    let row = a.here();
    a.lsli(Reg::X4, Reg::X3, 6);
    a.add(Reg::X5, Reg::X2, Reg::X4);
    a.ldm(&[Reg::X6, Reg::X7, Reg::X8, Reg::X9], Reg::X5);
    // Fixed-point butterfly with rounding shifts.
    a.add(Reg::X10, Reg::X6, Reg::X9);
    a.sub(Reg::X11, Reg::X6, Reg::X9);
    a.add(Reg::X12, Reg::X7, Reg::X8);
    a.sub(Reg::X13, Reg::X7, Reg::X8);
    a.alui(lvp_isa::AluOp::Mul, Reg::X11, Reg::X11, 181);
    a.lsri(Reg::X11, Reg::X11, 7);
    a.alui(lvp_isa::AluOp::Mul, Reg::X13, Reg::X13, 181);
    a.lsri(Reg::X13, Reg::X13, 7);
    a.stp(Reg::X10, Reg::X11, Reg::X5, 0);
    a.stp(Reg::X12, Reg::X13, Reg::X5, 16);
    a.addi(Reg::X3, Reg::X3, 1);
    a.mov(Reg::X14, 8);
    a.blt(Reg::X3, Reg::X14, row);
    a.addi(Reg::X21, Reg::X21, 1);
    a.b(top);
    a.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_emu::Emulator;

    #[test]
    fn all_auto_kernels_run_with_loads() {
        for w in workloads() {
            let t = Emulator::new(w.program()).run(15_000).trace;
            assert_eq!(t.len(), 15_000, "{}", w.name);
            assert!(
                t.load_count() * 20 >= t.len(),
                "{}: loads {}",
                w.name,
                t.load_count()
            );
        }
    }

    #[test]
    fn a2time_calibration_addresses_are_stable() {
        // Three of the five loads per iteration read fixed calibration
        // cells — the read-mostly class PAP covers at confidence 8.
        let t = Emulator::new(a2time()).run(40_000).trace;
        let mut p = lvp_trace::RepeatProfiler::default();
        t.records().iter().for_each(|r| p.push(r));
        let p = p.finish();
        let i8 = lvp_trace::RepeatProfile::threshold_index(8).unwrap();
        assert!(p.addr_fraction(i8) > 0.5, "got {}", p.addr_fraction(i8));
    }

    #[test]
    fn rspeed_uses_the_divider() {
        let t = Emulator::new(rspeed()).run(10_000).trace;
        let divs = t
            .records()
            .iter()
            .filter(|r| matches!(r.inst.op_class(), lvp_isa::OpClass::IntDiv))
            .count();
        assert!(divs > 500, "got {divs}");
    }

    #[test]
    fn canrdr_dispatches() {
        let t = Emulator::new(canrdr()).run(15_000).trace;
        let blr = t
            .records()
            .iter()
            .filter(|r| matches!(r.inst, lvp_isa::Instruction::Blr { .. }))
            .count();
        assert!(blr > 800, "got {blr}");
    }
}
