//! SPEC2K6-styled kernels: `mcf`, `gcc`, `bzip2`, `h264ref`, `soplex`,
//! `libquantum`, `hmmer`.

use crate::util::{linked_ring, rand_u64s, CODE_BASE, DATA_BASE};
use crate::{Suite, Workload};
use lvp_isa::{Asm, MemSize, Program, Reg};

/// The SPEC2K6-styled workloads.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload::new(
            "mcf",
            Suite::Spec2k6,
            "network-simplex pointer chasing over arc lists",
            mcf,
        ),
        Workload::new(
            "gcc",
            Suite::Spec2k6,
            "IR walk: tagged-union nodes, switch-heavy",
            gcc,
        ),
        Workload::new(
            "bzip2",
            Suite::Spec2k6,
            "BWT-style data-dependent indexing over a large block (TLB pressure)",
            bzip2,
        ),
        Workload::new(
            "h264ref",
            Suite::Spec2k6,
            "motion search: 2D SAD over reference frames, strided and prefetchable",
            h264ref,
        ),
        Workload::new(
            "soplex",
            Suite::Spec2k6,
            "sparse matrix-vector: index loads plus gathered values",
            soplex,
        ),
        Workload::new(
            "libquantum",
            Suite::Spec2k6,
            "repeated gate sweeps updating a state vector (committed-store conflicts)",
            libquantum,
        ),
        Workload::new(
            "hmmer",
            Suite::Spec2k6,
            "Viterbi-style DP rows: loads re-read last sweep's stores",
            hmmer,
        ),
    ]
}

/// Pointer-chase kernel modelled on mcf's arc traversal. Addresses are
/// data-dependent and (per static load) non-repeating, so address
/// prediction covers little — the realistic hard case.
fn mcf() -> Program {
    const NODES: usize = 2048;
    const NODE_BYTES: u64 = 32;
    let mut a = Asm::new(CODE_BASE);

    let ring = DATA_BASE;
    a.data_u64(ring, &linked_ring(0x3c, ring, NODES, NODE_BYTES));

    a.mov(Reg::X20, ring); // current node
    a.mov(Reg::X21, 0); // cost accumulator

    let top = a.here();
    a.ldr(Reg::X1, Reg::X20, 0, MemSize::X); // next pointer
    a.ldr(Reg::X2, Reg::X20, 8, MemSize::X); // cost
    a.ldr(Reg::X3, Reg::X20, 16, MemSize::X); // flow
    a.add(Reg::X21, Reg::X21, Reg::X2);
    let skip = a.new_label();
    a.cbz(Reg::X3, skip);
    a.addi(Reg::X4, Reg::X3, 1);
    a.str_(Reg::X4, Reg::X20, 16, MemSize::X); // update flow
    a.place(skip);
    a.mov_r(Reg::X20, Reg::X1);
    a.b(top);
    a.build()
}

/// IR-walk kernel modelled on gcc: an array of tagged nodes; a switch on
/// the tag picks one of several field-access shapes.
fn gcc() -> Program {
    const NODES: u64 = 1024; // 32B nodes: [tag, op1, op2, result]
    let mut a = Asm::new(CODE_BASE);

    let nodes = DATA_BASE;
    let jt = DATA_BASE + 0x2_0000;

    let mut words = Vec::with_capacity((NODES * 4) as usize);
    let tags = rand_u64s(0x6cc, NODES as usize, 4);
    let vals = rand_u64s(0x6cd, (NODES * 2) as usize, 1 << 16);
    for i in 0..NODES as usize {
        words.push(tags[i]);
        words.push(vals[2 * i]);
        words.push(vals[2 * i + 1]);
        words.push(0);
    }
    a.data_u64(nodes, &words);

    let frame = DATA_BASE + 0x3_0000;
    a.data_u64(frame, &[nodes, jt]);
    a.mov(Reg::X29, frame);
    a.mov(Reg::X21, 0); // node index
    a.mov(Reg::X23, 0); // checksum

    let top = a.here();
    a.ldr(Reg::X20, Reg::X29, 0, MemSize::X); // nodes base (spill reload)
    a.ldr(Reg::X22, Reg::X29, 8, MemSize::X); // jump table base
    a.andi(Reg::X1, Reg::X21, (NODES - 1) as i64);
    a.lsli(Reg::X1, Reg::X1, 5);
    a.add(Reg::X2, Reg::X20, Reg::X1); // node pointer
    a.ldr(Reg::X3, Reg::X2, 0, MemSize::X); // tag
    a.lsli(Reg::X4, Reg::X3, 3);
    a.ldr_idx(Reg::X5, Reg::X22, Reg::X4, MemSize::X); // switch target
    a.blr(Reg::X5);
    a.addi(Reg::X21, Reg::X21, 1);
    a.b(top);

    // Case handlers (x2 = node pointer).
    let mut cases = Vec::new();
    // PLUS
    cases.push(a.pc());
    a.ldp(Reg::X6, Reg::X7, Reg::X2, 8);
    a.add(Reg::X8, Reg::X6, Reg::X7);
    a.str_(Reg::X8, Reg::X2, 24, MemSize::X);
    a.ret();
    // SHIFT
    cases.push(a.pc());
    a.ldr(Reg::X6, Reg::X2, 8, MemSize::X);
    a.lsli(Reg::X8, Reg::X6, 2);
    a.str_(Reg::X8, Reg::X2, 24, MemSize::X);
    a.ret();
    // COMPARE (branchy)
    cases.push(a.pc());
    a.ldp(Reg::X6, Reg::X7, Reg::X2, 8);
    let ge = a.new_label();
    a.bge(Reg::X6, Reg::X7, ge);
    a.addi(Reg::X23, Reg::X23, 1);
    a.place(ge);
    a.ret();
    // CONST — accumulate into checksum only.
    cases.push(a.pc());
    a.ldr(Reg::X6, Reg::X2, 16, MemSize::X);
    a.eor(Reg::X23, Reg::X23, Reg::X6);
    a.ret();

    a.data_u64(jt, &cases);
    a.build()
}

/// Large-footprint kernel modelled on bzip2's BWT phase: data-dependent
/// hops across a multi-megabyte block, stressing the TLB.
fn bzip2() -> Program {
    const BLOCK_WORDS: usize = 1 << 19; // 4 MiB of u64
    let mut a = Asm::new(CODE_BASE);

    let block = DATA_BASE;
    // Successor permutation: each word holds the next index to visit —
    // a permutation cycle over the whole block.
    let perm = crate::util::permutation(0xb2, BLOCK_WORDS);
    let mut words = vec![0u64; BLOCK_WORDS];
    for i in 0..BLOCK_WORDS {
        words[perm[i] as usize] = perm[(i + 1) % BLOCK_WORDS];
    }
    a.data_u64(block, &words);

    a.mov(Reg::X20, block);
    a.mov(Reg::X21, 0); // current index
    a.mov(Reg::X22, 0); // output counter

    let top = a.here();
    a.lsli(Reg::X1, Reg::X21, 3);
    a.ldr_idx(Reg::X2, Reg::X20, Reg::X1, MemSize::X); // next index
    a.andi(Reg::X3, Reg::X2, 255);
    a.add(Reg::X22, Reg::X22, Reg::X3); // "emit byte"
    a.mov_r(Reg::X21, Reg::X2);
    a.b(top);
    a.build()
}

/// Motion-search kernel modelled on h264ref: 16-pixel-row SADs between a
/// current block and a sliding reference window. Strided, prefetchable.
fn h264ref() -> Program {
    const FRAME_WORDS: u64 = 1 << 14; // 128 KiB reference frame
    let mut a = Asm::new(CODE_BASE);

    let frame = DATA_BASE;
    let cur = DATA_BASE + 0x8_0000;
    a.data_u64(frame, &rand_u64s(0x264, FRAME_WORDS as usize, 256));
    a.data_u64(cur, &rand_u64s(0x265, 32, 256));

    let best = DATA_BASE + 0xf_0000; // (best SAD, candidate count) pair
    a.data_u64(best, &[u64::MAX >> 1, 0, 0, 0]);

    let bases = DATA_BASE + 0xf_1000;
    a.data_u64(bases, &[frame, cur, best]);
    a.mov(Reg::X29, bases);
    a.mov(Reg::X22, 0); // search offset
    a.mov(Reg::X23, 0); // SAD accumulator for the current offset

    let search = a.here();
    a.ldr(Reg::X20, Reg::X29, 0, MemSize::X); // frame base (spill reload)
    a.ldr(Reg::X21, Reg::X29, 8, MemSize::X); // current block base
    a.ldr(Reg::X26, Reg::X29, 16, MemSize::X); // best-match pair address
                                               // wrap offset
    a.andi(Reg::X22, Reg::X22, ((FRAME_WORDS - 64) * 8 - 1) as i64 & !7);
    a.mov(Reg::X24, 0); // row
    let row = a.here();
    a.lsli(Reg::X1, Reg::X24, 4); // row * 16 bytes
    a.add(Reg::X2, Reg::X1, Reg::X22);
    a.add(Reg::X3, Reg::X20, Reg::X2);
    a.ldp(Reg::X4, Reg::X5, Reg::X3, 0); // reference pixels
    a.add(Reg::X6, Reg::X21, Reg::X1);
    a.ldp(Reg::X7, Reg::X8, Reg::X6, 0); // current pixels
    a.sub(Reg::X9, Reg::X4, Reg::X7);
    a.sub(Reg::X10, Reg::X5, Reg::X8);
    a.eor(Reg::X9, Reg::X9, Reg::X10);
    a.add(Reg::X23, Reg::X23, Reg::X9);
    a.addi(Reg::X24, Reg::X24, 1);
    a.mov(Reg::X11, 16);
    a.blt(Reg::X24, Reg::X11, row);
    // Best-match bookkeeping: a fixed-address 4-word state block read and
    // rewritten once per candidate offset. The ~220-instruction row loop
    // separates the stores from the next read, so these are *committed*-
    // store conflicts (Figure 1's unshaded class).
    a.ldm(&[Reg::X12, Reg::X13, Reg::X14, Reg::X15], Reg::X26); // best SAD, count, best offset, checksum
    a.addi(Reg::X13, Reg::X13, 1);
    let keep = a.new_label();
    a.bge(Reg::X23, Reg::X12, keep);
    a.mov_r(Reg::X12, Reg::X23);
    a.mov_r(Reg::X14, Reg::X22);
    a.place(keep);
    a.eor(Reg::X15, Reg::X15, Reg::X23);
    a.stm(&[Reg::X12, Reg::X13, Reg::X14, Reg::X15], Reg::X26);
    a.mov(Reg::X23, 0);
    a.addi(Reg::X22, Reg::X22, 40); // slide the window
    a.b(search);
    a.build()
}

/// Sparse matrix-vector kernel modelled on soplex: row-pointer and column
/// index loads are strided/repeatable; the gathered vector loads are not.
fn soplex() -> Program {
    const NNZ: u64 = 4096;
    const VEC: u64 = 1024;
    let mut a = Asm::new(CODE_BASE);

    let cols = DATA_BASE; // column index per nonzero
    let vals = DATA_BASE + 0x1_0000; // value per nonzero (f64 bits)
    let vec = DATA_BASE + 0x2_0000; // dense vector
    let out = DATA_BASE + 0x3_0000;

    a.data_u64(cols, &rand_u64s(0x50, NNZ as usize, VEC));
    let fvals: Vec<f64> = (0..NNZ).map(|i| (i % 97) as f64 * 0.5).collect();
    a.data_f64(vals, &fvals);
    let fvec: Vec<f64> = (0..VEC).map(|i| (i % 31) as f64).collect();
    a.data_f64(vec, &fvec);

    let frame = DATA_BASE + 0x4_0000;
    a.data_u64(frame, &[cols, vals, vec, out]);
    a.mov(Reg::X29, frame);
    a.mov(Reg::X24, 0); // nonzero cursor
    a.mov(Reg::X26, 0i64 as u64); // accumulator (f64 bits)

    let top = a.here();
    a.ldr(Reg::X20, Reg::X29, 0, MemSize::X); // cols base (spill reload)
    a.ldr(Reg::X21, Reg::X29, 8, MemSize::X); // vals base
    a.ldr(Reg::X22, Reg::X29, 16, MemSize::X); // vector base
    a.ldr(Reg::X23, Reg::X29, 24, MemSize::X); // out base
    a.andi(Reg::X1, Reg::X24, (NNZ - 1) as i64);
    a.lsli(Reg::X1, Reg::X1, 3);
    a.ldr_idx(Reg::X2, Reg::X20, Reg::X1, MemSize::X); // column index (strided)
    a.ldr_idx(Reg::X3, Reg::X21, Reg::X1, MemSize::X); // matrix value (strided)
    a.lsli(Reg::X4, Reg::X2, 3);
    a.ldr_idx(Reg::X5, Reg::X22, Reg::X4, MemSize::X); // x[col] (gather)
    a.fmul(Reg::X6, Reg::X3, Reg::X5);
    a.fadd(Reg::X26, Reg::X26, Reg::X6);
    // Every 64 nonzeros, spill the row sum.
    a.andi(Reg::X7, Reg::X24, 63);
    let cont = a.new_label();
    a.cbnz(Reg::X7, cont);
    a.lsri(Reg::X8, Reg::X24, 6);
    a.andi(Reg::X8, Reg::X8, 511);
    a.lsli(Reg::X8, Reg::X8, 3);
    a.str_idx(Reg::X26, Reg::X23, Reg::X8, MemSize::X);
    a.mov(Reg::X26, 0);
    a.place(cont);
    a.addi(Reg::X24, Reg::X24, 1);
    a.b(top);
    a.build()
}

/// Gate-sweep kernel modelled on libquantum: every sweep XOR-toggles the
/// amplitude words it read in the previous sweep — the canonical
/// "load → committed store → load" pattern of Figure 1.
fn libquantum() -> Program {
    const STATE_WORDS: u64 = 2048;
    let mut a = Asm::new(CODE_BASE);

    let state = DATA_BASE;
    a.data_u64(state, &rand_u64s(0x17b, STATE_WORDS as usize, 1 << 24));

    let phase = DATA_BASE + 0x8_0000; // global phase accumulator

    let frame = DATA_BASE + 0x9_0000;
    a.data_u64(frame, &[state, phase]);
    a.mov(Reg::X29, frame);
    a.mov(Reg::X21, 0); // index
    a.mov(Reg::X22, 1); // gate mask

    let top = a.here();
    a.ldr(Reg::X20, Reg::X29, 0, MemSize::X); // state base (spill reload)
    a.ldr(Reg::X25, Reg::X29, 8, MemSize::X); // phase cell address
    a.andi(Reg::X1, Reg::X21, (STATE_WORDS - 1) as i64);
    a.lsli(Reg::X1, Reg::X1, 3);
    a.ldr_idx(Reg::X2, Reg::X20, Reg::X1, MemSize::X); // amplitude
    a.eor(Reg::X2, Reg::X2, Reg::X22); // apply gate
    a.str_idx(Reg::X2, Reg::X20, Reg::X1, MemSize::X); // write back
                                                       // Global phase: read every gate, written back every 8th gate. The next
                                                       // read after a write still usually finds the store in flight — the
                                                       // Figure 1 shaded class.
    a.ldr(Reg::X4, Reg::X25, 0, MemSize::X);
    a.add(Reg::X4, Reg::X4, Reg::X2);
    a.andi(Reg::X5, Reg::X21, 7);
    let no_wb = a.new_label();
    a.cbnz(Reg::X5, no_wb);
    a.str_(Reg::X4, Reg::X25, 0, MemSize::X);
    a.place(no_wb);
    a.addi(Reg::X21, Reg::X21, 1);
    // Rotate the gate mask each full sweep.
    a.andi(Reg::X3, Reg::X21, (STATE_WORDS - 1) as i64);
    let cont = a.new_label();
    a.cbnz(Reg::X3, cont);
    a.lsli(Reg::X22, Reg::X22, 1);
    let nz = a.new_label();
    a.cbnz(Reg::X22, nz);
    a.mov(Reg::X22, 1);
    a.place(nz);
    a.place(cont);
    a.b(top);
    a.build()
}

/// DP-row kernel modelled on hmmer: the current row is computed from the
/// previous row (stored on the last sweep and long committed by re-read).
fn hmmer() -> Program {
    const ROW_WORDS: u64 = 1024;
    let mut a = Asm::new(CODE_BASE);

    let row_a = DATA_BASE;
    let row_b = DATA_BASE + 0x8000;
    let scores = DATA_BASE + 0x1_0000;
    a.data_u64(row_a, &rand_u64s(0x44e, ROW_WORDS as usize, 1 << 12));
    a.data_u64(scores, &rand_u64s(0x44f, 256, 64));

    a.mov(Reg::X20, row_a); // previous row
    a.mov(Reg::X21, row_b); // current row
    a.mov(Reg::X22, scores);
    a.mov(Reg::X23, 0); // column
    a.mov(Reg::X24, 0); // sweep count

    let top = a.here();
    a.andi(Reg::X1, Reg::X23, (ROW_WORDS - 1) as i64);
    a.lsli(Reg::X1, Reg::X1, 3);
    a.ldr_idx(Reg::X2, Reg::X20, Reg::X1, MemSize::X); // prev[j]
    a.subi(Reg::X9, Reg::X1, 8);
    let first = a.new_label();
    let joined = a.new_label();
    a.cbz(Reg::X1, first);
    a.ldr_idx(Reg::X3, Reg::X20, Reg::X9, MemSize::X); // prev[j-1]
    a.b(joined);
    a.place(first);
    a.mov(Reg::X3, 0);
    a.place(joined);
    a.andi(Reg::X4, Reg::X24, 255);
    a.lsli(Reg::X4, Reg::X4, 3);
    a.ldr_idx(Reg::X5, Reg::X22, Reg::X4, MemSize::X); // emission score
    let pick_b = a.new_label();
    let picked = a.new_label();
    a.bge(Reg::X2, Reg::X3, pick_b);
    a.add(Reg::X6, Reg::X3, Reg::X5);
    a.b(picked);
    a.place(pick_b);
    a.add(Reg::X6, Reg::X2, Reg::X5);
    a.place(picked);
    a.str_idx(Reg::X6, Reg::X21, Reg::X1, MemSize::X); // cur[j]
                                                       // Global running checksum: read per column, written every 8th column.
    a.ldr(Reg::X12, Reg::X22, 0x800, MemSize::X);
    a.eor(Reg::X12, Reg::X12, Reg::X6);
    a.andi(Reg::X13, Reg::X23, 7);
    let no_wb = a.new_label();
    a.cbnz(Reg::X13, no_wb);
    a.str_(Reg::X12, Reg::X22, 0x800, MemSize::X);
    a.place(no_wb);
    a.addi(Reg::X23, Reg::X23, 1);
    // Swap rows at the end of each sweep.
    a.andi(Reg::X7, Reg::X23, (ROW_WORDS - 1) as i64);
    let cont = a.new_label();
    a.cbnz(Reg::X7, cont);
    a.mov_r(Reg::X8, Reg::X20);
    a.mov_r(Reg::X20, Reg::X21);
    a.mov_r(Reg::X21, Reg::X8);
    a.addi(Reg::X24, Reg::X24, 1);
    a.place(cont);
    a.b(top);
    a.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_emu::Emulator;
    use lvp_trace::{ConflictProfiler, RepeatProfile, RepeatProfiler};

    #[test]
    fn mcf_addresses_do_not_repeat_per_pc() {
        let t = Emulator::new(mcf()).run(30_000).trace;
        let mut p = RepeatProfiler::default();
        t.records().iter().for_each(|r| p.push(r));
        let p = p.finish();
        let i8 = RepeatProfile::threshold_index(8).unwrap();
        assert!(
            p.addr_fraction(i8) < 0.2,
            "pointer chase should defeat address runs"
        );
    }

    #[test]
    fn libquantum_global_phase_conflicts_inflight() {
        // The phase is written back every 8th gate; the read right after a
        // write-back conflicts with the (usually still in-flight) store.
        let t = Emulator::new(libquantum()).run(60_000).trace;
        let mut p = ConflictProfiler::new(96);
        t.records().iter().for_each(|r| p.push(r));
        let p = p.finish();
        assert!(p.total_fraction() > 0.02, "got {}", p.total_fraction());
        assert!(
            p.inflight_fraction() > p.committed_fraction(),
            "short loop: conflicts should be in-flight ({p:?})"
        );
    }

    #[test]
    fn hmmer_checksum_conflicts() {
        let t = Emulator::new(hmmer()).run(80_000).trace;
        let mut p = ConflictProfiler::new(96);
        t.records().iter().for_each(|r| p.push(r));
        let p = p.finish();
        assert!(p.total_fraction() > 0.02, "got {}", p.total_fraction());
    }

    #[test]
    fn bzip2_touches_many_pages() {
        let t = Emulator::new(bzip2()).run(30_000).trace;
        let mut pages: Vec<u64> = t.loads().map(|l| l.addr >> 12).collect();
        pages.sort_unstable();
        pages.dedup();
        assert!(
            pages.len() > 256,
            "TLB-stressing footprint expected, got {} pages",
            pages.len()
        );
    }

    #[test]
    fn h264_and_soplex_and_gcc_run() {
        for p in [h264ref(), soplex(), gcc()] {
            let t = Emulator::new(p).run(10_000).trace;
            assert_eq!(t.len(), 10_000);
            assert!(t.load_count() > 500);
        }
    }
}
