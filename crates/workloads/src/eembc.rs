//! EEMBC-styled DSP/embedded kernels: `aifirf`, `nat`, `fft`, `viterbi`,
//! `autcor`, `idct`.

use crate::util::{rand_u64s, CODE_BASE, DATA_BASE};
use crate::{Suite, Workload};
use lvp_isa::{Asm, MemSize, Program, Reg};

/// The EEMBC-styled workloads.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload::new(
            "aifirf",
            Suite::Eembc,
            "FIR filter: perfectly repeatable coefficient/sample addresses, changing values",
            crate::eembc_aifirf::build,
        ),
        Workload::new(
            "nat",
            Suite::Eembc,
            "NAT table lookups: small stable tables, repeating values",
            nat,
        ),
        Workload::new(
            "fft",
            Suite::Eembc,
            "radix-2 butterflies: bit-reversed strides",
            fft,
        ),
        Workload::new(
            "viterbi",
            Suite::Eembc,
            "trellis decode: small metric tables, branchy selects",
            viterbi,
        ),
        Workload::new(
            "autcor",
            Suite::Eembc,
            "autocorrelation: two sliding strided streams",
            autcor,
        ),
        Workload::new(
            "idct",
            Suite::Eembc,
            "8x8 inverse DCT: VLD/LDP row transforms",
            idct,
        ),
    ]
}

/// NAT lookup kernel (paper: `nat` favours VTAGE — loaded *values* repeat
/// even where the addresses do not). Per-flow session structs carry fields
/// whose value is identical across flows (protocol mode, MTU, gateway), so
/// the loads that read them have data-dependent addresses — hopeless for an
/// address predictor — but constant values — easy for a value predictor.
fn nat() -> Program {
    const TABLE: u64 = 64; // small translation table
    const FLOWS: u64 = 1024; // 32B session structs
    let mut a = Asm::new(CODE_BASE);

    let table = DATA_BASE;
    let flows = DATA_BASE + 0x1000; // session structs: [slot, mode, mtu, pad]
    let counters = DATA_BASE + 0x2_0000;
    let config = DATA_BASE + 0x3_0000; // immutable config singleton
    a.data_u64(table, &rand_u64s(0x7a1, TABLE as usize, 1 << 16));
    let slots = rand_u64s(0x7a2, FLOWS as usize, TABLE);
    let mut session_words = Vec::with_capacity((FLOWS * 4) as usize);
    for s in &slots {
        session_words.push(*s); // table slot (varies)
        session_words.push(0x11); // protocol mode: same for every flow
        session_words.push(1500); // MTU: same for every flow
        session_words.push(0);
    }
    a.data_u64(flows, &session_words);
    // Pointer table: flow id -> session struct pointer (permuted placement,
    // as a real allocator would give).
    let ptrs = DATA_BASE + 0x1_0000;
    let perm = crate::util::permutation(0x7a3, FLOWS as usize);
    let ptr_words: Vec<u64> = (0..FLOWS as usize).map(|i| flows + perm[i] * 32).collect();
    a.data_u64(ptrs, &ptr_words);
    a.data_u64(config, &[table, ptrs, counters]); // spilled base pointers

    a.mov(Reg::X25, config);
    a.mov(Reg::X23, 0); // packet counter
    a.mov(Reg::X6, 0x5bd1e995); // checksum state
    a.mov(Reg::X11, 0x2545f4914f6cdd1d); // packet-length LCG state

    let top = a.here();
    // Reload spilled base pointers (fixed address, constant value — the
    // loads both VTAGE and DLVP cover).
    a.ldr(Reg::X20, Reg::X25, 0, MemSize::X); // table base
    a.ldr(Reg::X21, Reg::X25, 8, MemSize::X); // sessions base
    a.ldr(Reg::X22, Reg::X25, 16, MemSize::X); // counters base
                                               // Pick the session struct for this packet: pointer load, then field
                                               // loads through the pointer (a two-load chain).
    a.andi(Reg::X1, Reg::X23, (FLOWS - 1) as i64);
    a.lsli(Reg::X1, Reg::X1, 3); // *8 bytes
    a.ldr_idx(Reg::X2, Reg::X21, Reg::X1, MemSize::X); // session pointer (varies)
    a.ldr(Reg::X3, Reg::X2, 0, MemSize::X); // slot id (varies)
    a.ldr(Reg::X8, Reg::X2, 8, MemSize::X); // protocol mode: value 0x11 always
    a.ldr(Reg::X9, Reg::X2, 16, MemSize::X); // MTU: value 1500 always
    a.lsli(Reg::X4, Reg::X3, 3);
    a.ldr_idx(Reg::X5, Reg::X20, Reg::X4, MemSize::X); // translation
                                                       // Checksum rewrite with the translation (pure ALU).
    a.eor(Reg::X6, Reg::X5, Reg::X23);
    a.add(Reg::X6, Reg::X6, Reg::X8);
    // Fragmentation check: packet length (pseudo-random) against the MTU
    // loaded above. The branch mispredicts often, and its resolution waits
    // on the MTU load — whose *value* is constant (VTAGE's home turf) while
    // its address varies per flow (hopeless for an address predictor).
    a.alui(lvp_isa::AluOp::Mul, Reg::X11, Reg::X11, 0x5851f42d4c957f2d);
    a.alui(lvp_isa::AluOp::Add, Reg::X11, Reg::X11, 0xb504f32d);
    a.lsri(Reg::X10, Reg::X11, 33);
    a.andi(Reg::X10, Reg::X10, 2047); // packet length 0..2047 (LCG: early-ready, unlearnable)
    let no_frag = a.new_label();
    a.blt(Reg::X10, Reg::X9, no_frag);
    a.addi(Reg::X6, Reg::X6, 13); // fragmentation path
    a.place(no_frag);
    a.and(Reg::X6, Reg::X6, Reg::X9);
    // Per-slot packet counter: read per packet, flushed every 4th packet.
    a.ldr_idx(Reg::X7, Reg::X22, Reg::X4, MemSize::X);
    a.addi(Reg::X7, Reg::X7, 1);
    a.andi(Reg::X12, Reg::X23, 3);
    let no_flush = a.new_label();
    a.cbnz(Reg::X12, no_flush);
    a.str_idx(Reg::X7, Reg::X22, Reg::X4, MemSize::X);
    a.place(no_flush);
    a.addi(Reg::X23, Reg::X23, 1);
    a.b(top);
    a.build()
}

/// Radix-2 FFT-style butterfly passes over a 1 KiB-entry complex array.
fn fft() -> Program {
    const N: u64 = 1024;
    let mut a = Asm::new(CODE_BASE);

    let re = DATA_BASE;
    let im = DATA_BASE + 0x4000;
    let fv: Vec<f64> = (0..N).map(|i| ((i * 13) % 255) as f64).collect();
    a.data_f64(re, &fv);
    a.data_f64(im, &fv);

    let frame = DATA_BASE + 0x8000;
    a.data_u64(frame, &[re, im]);
    a.mov(Reg::X29, frame);
    a.mov(Reg::X22, 1); // stride (doubles per pass, wraps at N/2)

    let pass = a.here();
    a.mov(Reg::X23, 0); // butterfly index
    let fly = a.here();
    a.ldr(Reg::X20, Reg::X29, 0, MemSize::X); // re base (spill reload)
    a.ldr(Reg::X21, Reg::X29, 8, MemSize::X); // im base
                                              // indices: i and i + stride (mod N)
    a.andi(Reg::X1, Reg::X23, (N - 1) as i64);
    a.add(Reg::X2, Reg::X1, Reg::X22);
    a.andi(Reg::X2, Reg::X2, (N - 1) as i64);
    a.lsli(Reg::X1, Reg::X1, 3);
    a.lsli(Reg::X2, Reg::X2, 3);
    a.ldr_idx(Reg::X3, Reg::X20, Reg::X1, MemSize::X); // re[i]
    a.ldr_idx(Reg::X4, Reg::X20, Reg::X2, MemSize::X); // re[j]
    a.ldr_idx(Reg::X5, Reg::X21, Reg::X1, MemSize::X); // im[i]
    a.ldr_idx(Reg::X6, Reg::X21, Reg::X2, MemSize::X); // im[j]
    a.fadd(Reg::X7, Reg::X3, Reg::X4);
    a.fsub(Reg::X8, Reg::X3, Reg::X4);
    a.fadd(Reg::X9, Reg::X5, Reg::X6);
    a.fsub(Reg::X10, Reg::X5, Reg::X6);
    a.str_idx(Reg::X7, Reg::X20, Reg::X1, MemSize::X);
    a.str_idx(Reg::X8, Reg::X20, Reg::X2, MemSize::X);
    a.str_idx(Reg::X9, Reg::X21, Reg::X1, MemSize::X);
    a.str_idx(Reg::X10, Reg::X21, Reg::X2, MemSize::X);
    a.addi(Reg::X23, Reg::X23, 1);
    a.mov(Reg::X11, N);
    a.blt(Reg::X23, Reg::X11, fly);
    // next pass: double the stride, wrap at N/2
    a.lsli(Reg::X22, Reg::X22, 1);
    a.mov(Reg::X12, N / 2);
    let ok = a.new_label();
    a.blt(Reg::X22, Reg::X12, ok);
    a.mov(Reg::X22, 1);
    a.place(ok);
    a.b(pass);
    a.build()
}

/// Trellis decoder kernel modelled on EEMBC viterbi.
fn viterbi() -> Program {
    const STATES: u64 = 256;
    let mut a = Asm::new(CODE_BASE);

    let metrics = DATA_BASE;
    let branch_costs = DATA_BASE + 0x1000;
    let next_metrics = DATA_BASE + 0x2000;
    a.data_u64(metrics, &rand_u64s(0x7b1, STATES as usize, 1 << 10));
    a.data_u64(branch_costs, &rand_u64s(0x7b2, 256, 16));

    a.mov(Reg::X20, metrics);
    a.mov(Reg::X22, next_metrics);
    let frame = DATA_BASE + 0x3000;
    a.data_u64(frame, &[branch_costs]);
    a.mov(Reg::X29, frame);
    a.mov(Reg::X23, 0); // state
    a.mov(Reg::X24, 0); // symbol counter

    let top = a.here();
    a.ldr(Reg::X21, Reg::X29, 0, MemSize::X); // cost table base (spill reload)
    a.andi(Reg::X1, Reg::X23, (STATES - 1) as i64);
    // Predecessors: 2s and 2s+1 (mod STATES)
    a.lsli(Reg::X2, Reg::X1, 1);
    a.andi(Reg::X2, Reg::X2, (STATES - 1) as i64);
    a.addi(Reg::X3, Reg::X2, 1);
    a.andi(Reg::X3, Reg::X3, (STATES - 1) as i64);
    a.lsli(Reg::X2, Reg::X2, 3);
    a.lsli(Reg::X3, Reg::X3, 3);
    a.ldr_idx(Reg::X4, Reg::X20, Reg::X2, MemSize::X); // metric[p0]
    a.ldr_idx(Reg::X5, Reg::X20, Reg::X3, MemSize::X); // metric[p1]
    a.andi(Reg::X6, Reg::X24, 255);
    a.lsli(Reg::X6, Reg::X6, 3);
    a.ldr_idx(Reg::X7, Reg::X21, Reg::X6, MemSize::X); // branch cost
    a.add(Reg::X4, Reg::X4, Reg::X7);
    // select min (branchy add-compare-select)
    let pick1 = a.new_label();
    let done = a.new_label();
    a.bge(Reg::X4, Reg::X5, pick1);
    a.mov_r(Reg::X8, Reg::X4);
    a.b(done);
    a.place(pick1);
    a.mov_r(Reg::X8, Reg::X5);
    a.place(done);
    a.lsli(Reg::X9, Reg::X1, 3);
    a.str_idx(Reg::X8, Reg::X22, Reg::X9, MemSize::X);
    a.addi(Reg::X23, Reg::X23, 1);
    // Swap metric arrays each full state sweep.
    a.andi(Reg::X10, Reg::X23, (STATES - 1) as i64);
    let cont = a.new_label();
    a.cbnz(Reg::X10, cont);
    a.mov_r(Reg::X11, Reg::X20);
    a.mov_r(Reg::X20, Reg::X22);
    a.mov_r(Reg::X22, Reg::X11);
    a.addi(Reg::X24, Reg::X24, 1);
    a.place(cont);
    a.b(top);
    a.build()
}

/// Autocorrelation: `r[k] = sum x[i] * x[i+k]` over a fixed window.
fn autcor() -> Program {
    const N: u64 = 256;
    const LAGS: u64 = 16;
    let mut a = Asm::new(CODE_BASE);

    let x = DATA_BASE;
    let r = DATA_BASE + 0x2000;
    let fv: Vec<f64> = (0..N + LAGS)
        .map(|i| ((i * 7) % 64) as f64 - 32.0)
        .collect();
    a.data_f64(x, &fv);

    let frame = DATA_BASE + 0x4000;
    a.data_u64(frame, &[x, r]);
    a.mov(Reg::X29, frame);
    a.mov(Reg::X22, 0); // lag k

    let outer = a.here();
    a.andi(Reg::X22, Reg::X22, (LAGS - 1) as i64);
    a.mov(Reg::X23, 0); // i
    a.mov(Reg::X26, 0); // acc
    let inner = a.here();
    a.ldr(Reg::X20, Reg::X29, 0, MemSize::X); // x base (spill reload)
    a.ldr(Reg::X21, Reg::X29, 8, MemSize::X); // r base
    a.lsli(Reg::X1, Reg::X23, 3);
    a.ldr_idx(Reg::X2, Reg::X20, Reg::X1, MemSize::X); // x[i]
    a.add(Reg::X3, Reg::X23, Reg::X22);
    a.lsli(Reg::X3, Reg::X3, 3);
    a.ldr_idx(Reg::X4, Reg::X20, Reg::X3, MemSize::X); // x[i+k]
    a.fmul(Reg::X5, Reg::X2, Reg::X4);
    a.fadd(Reg::X26, Reg::X26, Reg::X5);
    a.addi(Reg::X23, Reg::X23, 1);
    a.mov(Reg::X6, N);
    a.blt(Reg::X23, Reg::X6, inner);
    a.lsli(Reg::X7, Reg::X22, 3);
    a.str_idx(Reg::X26, Reg::X21, Reg::X7, MemSize::X);
    a.addi(Reg::X22, Reg::X22, 1);
    a.b(outer);
    a.build()
}

/// 8×8 inverse-DCT-style row/column passes using VLD/LDP — the
/// multi-destination loads that trouble conventional value predictors.
fn idct() -> Program {
    const BLOCKS: u64 = 64; // 64 blocks of 8x8 u64 (512B each)
    let mut a = Asm::new(CODE_BASE);

    let blocks = DATA_BASE;
    a.data_u64(blocks, &rand_u64s(0x1dc, (BLOCKS * 64) as usize, 1 << 10));

    let frame = DATA_BASE + 0x9_0000;
    a.data_u64(frame, &[blocks]);
    a.mov(Reg::X29, frame);
    a.mov(Reg::X21, 0); // block index

    let dc_state = DATA_BASE + 0x9_1000; // (previous DC, running sum)
    let top = a.here();
    a.ldr(Reg::X20, Reg::X29, 0, MemSize::X); // blocks base (spill reload)
                                              // DC predictor state: fixed-address pair, read then rewritten each
                                              // block; the ~120-instruction row loop makes the conflict committed.
    a.mov(Reg::X26, dc_state);
    a.ldp(Reg::X22, Reg::X23, Reg::X26, 0);
    a.andi(Reg::X1, Reg::X21, (BLOCKS - 1) as i64);
    a.lsli(Reg::X1, Reg::X1, 9); // *512
    a.add(Reg::X2, Reg::X20, Reg::X1); // block base
    a.mov(Reg::X3, 0); // row
    let row = a.here();
    a.lsli(Reg::X4, Reg::X3, 6); // row * 64 bytes
    a.add(Reg::X5, Reg::X2, Reg::X4);
    a.vld(Reg::X6, Reg::X5, 0); // first 2 coefficients
    a.vld(Reg::X8, Reg::X5, 16);
    a.ldp(Reg::X10, Reg::X11, Reg::X5, 32);
    a.ldp(Reg::X12, Reg::X13, Reg::X5, 48);
    // Butterfly-ish integer mixing.
    a.add(Reg::X14, Reg::X6, Reg::X13);
    a.sub(Reg::X15, Reg::X7, Reg::X12);
    a.add(Reg::X16, Reg::X8, Reg::X11);
    a.sub(Reg::X17, Reg::X9, Reg::X10);
    a.stp(Reg::X14, Reg::X15, Reg::X5, 0);
    a.stp(Reg::X16, Reg::X17, Reg::X5, 16);
    a.addi(Reg::X3, Reg::X3, 1);
    a.mov(Reg::X18, 8);
    a.blt(Reg::X3, Reg::X18, row);
    // Update the DC state with this block's first coefficient.
    a.add(Reg::X23, Reg::X23, Reg::X14);
    a.stp(Reg::X14, Reg::X23, Reg::X26, 0);
    a.addi(Reg::X21, Reg::X21, 1);
    a.b(top);
    a.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_emu::Emulator;
    use lvp_trace::{RepeatProfile, RepeatProfiler};

    #[test]
    fn aifirf_addresses_repeat_values_do_not() {
        let t = Emulator::new(crate::eembc_aifirf::build())
            .run(60_000)
            .trace;
        let mut p = RepeatProfiler::default();
        t.records().iter().for_each(|r| p.push(r));
        let p = p.finish();
        let i8 = RepeatProfile::threshold_index(8).unwrap();
        let i64x = RepeatProfile::threshold_index(64).unwrap();
        assert!(
            p.addr_fraction(i8) > 0.5,
            "addr runs expected, got {}",
            p.addr_fraction(i8)
        );
        assert!(
            p.addr_fraction(i8) > p.value_fraction(i64x) + 0.2,
            "DLVP-favourable gap expected: addr@8={} value@64={}",
            p.addr_fraction(i8),
            p.value_fraction(i64x)
        );
    }

    #[test]
    fn nat_values_repeat() {
        let t = Emulator::new(nat()).run(60_000).trace;
        let mut p = RepeatProfiler::default();
        t.records().iter().for_each(|r| p.push(r));
        let p = p.finish();
        let i2 = RepeatProfile::threshold_index(2).unwrap();
        // The translation loads return stable values; at least the table
        // loads should show value repetition well above address repetition.
        assert!(p.value_fraction(i2) > 0.1, "got {}", p.value_fraction(i2));
    }

    #[test]
    fn idct_emits_vector_loads() {
        let t = Emulator::new(idct()).run(20_000).trace;
        let vld = t
            .records()
            .iter()
            .filter(|r| matches!(r.inst, lvp_isa::Instruction::Vld { .. }))
            .count();
        assert!(vld > 500, "got {vld}");
    }

    #[test]
    fn viterbi_and_autcor_run() {
        for p in [viterbi(), autcor()] {
            let t = Emulator::new(p).run(10_000).trace;
            assert_eq!(t.len(), 10_000);
        }
    }
}
