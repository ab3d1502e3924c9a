//! Property-based tests over randomly generated programs and access
//! streams: the emulator, trace analytics, predictors and the timing model
//! must stay well-behaved for *any* input, not just the curated kernels.
//!
//! The harness is a hand-rolled deterministic case generator (the offline
//! build has no `proptest`): each property runs over `CASES` inputs drawn
//! from a seeded splitmix64 stream, so failures reproduce exactly and a
//! failing case is identified by its case index.

use lvp_bench::runner::{run_matrix, ConfigVariant, MatrixSpec};
use lvp_bench::SchemeKind;
use lvp_emu::Emulator;
use lvp_isa::{AluOp, Asm, MemSize, Reg};
use lvp_uarch::{simulate, NoVp};

const CASES: usize = 24;

/// Deterministic splitmix64 stream for generating test inputs.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// A byte vector with length in `len_range`.
    fn bytes(&mut self, min: usize, max: usize) -> Vec<u8> {
        let n = min + self.below((max - min) as u64) as usize;
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    fn u64s(&mut self, min_len: usize, max_len: usize, bound: u64) -> Vec<u64> {
        let n = min_len + self.below((max_len - min_len) as u64) as usize;
        (0..n).map(|_| self.below(bound)).collect()
    }
}

/// A small random straight-line-plus-backedge program. All memory accesses
/// land in a private page per slot to keep them well-formed.
fn random_program(ops: &[u8]) -> lvp_isa::Program {
    let mut a = Asm::new(0x1_0000);
    a.data_u64(0x20_0000, &(0..256u64).collect::<Vec<_>>());
    a.mov(Reg::X20, 0x20_0000);
    a.mov(Reg::X21, 0);
    let top = a.here();
    for (i, &op) in ops.iter().enumerate() {
        let r1 = Reg::x(1 + (i % 8) as u8);
        let r2 = Reg::x(9 + (i % 6) as u8);
        match op % 8 {
            0 => a.addi(r1, r2, op as i64),
            1 => a.alu(AluOp::Eor, r1, r2, Reg::X21),
            2 => {
                a.andi(r2, r2, 255);
                a.lsli(r2, r2, 3);
                a.ldr_idx(r1, Reg::X20, r2, MemSize::X)
            }
            3 => {
                a.andi(r2, r2, 255);
                a.lsli(r2, r2, 3);
                a.str_idx(r1, Reg::X20, r2, MemSize::X)
            }
            4 => a.alui(AluOp::Mul, r1, r2, 0x9e37),
            5 => a.ldr(r1, Reg::X20, (op as i64 % 32) * 8, MemSize::X),
            6 => a.ldp(Reg::X15, Reg::X16, Reg::X20, (op as i64 % 16) * 8),
            _ => a.lsri(r1, r2, (op % 63) as i64),
        }
    }
    a.addi(Reg::X21, Reg::X21, 1);
    a.b(top);
    a.build()
}

#[test]
fn emulator_is_deterministic_on_random_programs() {
    let mut g = Gen::new(0xe41);
    for case in 0..CASES {
        let ops = g.bytes(4, 40);
        let t1 = Emulator::new(random_program(&ops)).run(4_000).trace;
        let t2 = Emulator::new(random_program(&ops)).run(4_000).trace;
        assert_eq!(t1.records(), t2.records(), "case {case}");
        assert_eq!(t1.len(), 4_000, "case {case}");
    }
}

#[test]
fn timing_model_is_sane_on_random_programs() {
    let mut g = Gen::new(0x71a);
    for case in 0..CASES {
        let ops = g.bytes(4, 40);
        let t = Emulator::new(random_program(&ops)).run(4_000).trace;
        let base = simulate(&t, NoVp);
        // IPC bounded by machine width; cycles bounded below by width.
        assert!(base.cycles >= t.len() as u64 / 8, "case {case}");
        assert!(base.ipc() <= 8.0, "case {case}");
        // Schemes never change the instruction count and never produce
        // impossible statistics.
        for stats in [
            simulate(&t, dlvp::dlvp_default()),
            simulate(&t, dlvp::Vtage::paper_default()),
            simulate(&t, dlvp::Tournament::new()),
        ] {
            assert_eq!(stats.instructions, base.instructions, "case {case}");
            assert!(stats.vp_correct <= stats.vp_predicted, "case {case}");
            assert!(stats.vp_predicted_loads <= stats.loads, "case {case}");
        }
    }
}

#[test]
fn pap_only_predicts_after_confidence_and_is_self_consistent() {
    use dlvp::AddressPredictor;
    let mut g = Gen::new(0x9a9);
    for case in 0..CASES {
        let addrs = g.u64s(32, 200, 64);
        let mut pap = dlvp::Pap::paper_default();
        let pc = 0x4000u64;
        let mut last: Option<u64> = None;
        let mut run = 0u32;
        for &slot in &addrs {
            let addr = 0x8000 + slot * 64;
            pap.note_load(pc);
            let (pred, ctx) = pap.lookup(pc);
            if let Some(p) = pred {
                // Only ever predicts an address it has been trained with.
                assert!(
                    addrs.iter().any(|&s| 0x8000 + s * 64 == p.addr),
                    "case {case}: predicted untrained address {:#x}",
                    p.addr
                );
                // Never predicts without at least some repetition history.
                assert!(run >= 1 || last.is_none(), "case {case}");
            }
            run = if last == Some(addr) { run + 1 } else { 0 };
            last = Some(addr);
            pap.train(ctx, addr, 1, None);
        }
    }
}

#[test]
fn cache_demand_accesses_always_hit_on_reaccess() {
    let mut g = Gen::new(0xcac4e);
    for case in 0..CASES {
        let addrs = g.u64s(1, 200, u64::from(u32::MAX) + 1);
        let mut c = lvp_mem::Cache::new(lvp_mem::CacheConfig {
            size_bytes: 4096,
            ways: 4,
            block_bytes: 64,
            hit_latency: 1,
        });
        for &a in &addrs {
            c.access(a);
            // Immediately after a demand access the block must be resident.
            assert!(c.lookup(a).is_some(), "case {case}");
            assert!(c.access(a).hit, "case {case}");
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, s.accesses, "case {case}");
    }
}

#[test]
fn path_history_restore_always_roundtrips() {
    let mut g = Gen::new(0x9174);
    for case in 0..CASES {
        let pcs = g.u64s(1, 64, u64::from(u32::MAX) + 1);
        let mut h = dlvp::LoadPathHistory::new(16);
        for &pc in &pcs {
            h.push_load(pc << 2);
        }
        let snap = h.snapshot();
        for &pc in &pcs {
            h.push_load(pc);
        }
        h.restore(snap);
        assert_eq!(h.bits(), snap, "case {case}");
    }
}

#[test]
fn instruction_encoding_roundtrips() {
    use lvp_isa::{AluOp, Cond, Instruction, MemSize, Reg, RegList};
    let alu_ops = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Orr,
        AluOp::Eor,
        AluOp::Lsl,
        AluOp::Lsr,
        AluOp::Asr,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::FAdd,
        AluOp::FSub,
        AluOp::FMul,
        AluOp::FDiv,
    ];
    let conds = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];
    let sizes = [MemSize::B, MemSize::H, MemSize::W, MemSize::X];
    let mut g = Gen::new(0xe2c);
    for case in 0..CASES {
        let n = 1 + g.below(63) as usize;
        let mut words = Vec::new();
        let mut insts = Vec::new();
        for _ in 0..n {
            let (a, b, c) = (g.next_u64() as u8, g.next_u64() as u8, g.next_u64() as u8);
            let imm = g.next_u64() as i64;
            let r1 = Reg::x(a % 31);
            let r2 = Reg::x(b % 31);
            let r3 = Reg::x(c % 31);
            let inst = match a % 14 {
                0 => Instruction::Alu {
                    op: alu_ops[b as usize % 15],
                    rd: r1,
                    rn: r2,
                    rm: r3,
                },
                1 => Instruction::AluImm {
                    op: alu_ops[c as usize % 15],
                    rd: r1,
                    rn: r2,
                    imm,
                },
                2 => Instruction::MovImm {
                    rd: r1,
                    imm: imm as u64,
                },
                3 => Instruction::Ldr {
                    rd: r1,
                    rn: r2,
                    offset: imm,
                    size: sizes[c as usize % 4],
                },
                4 => Instruction::Str {
                    rt: r1,
                    rn: r2,
                    offset: imm,
                    size: sizes[c as usize % 4],
                },
                5 => Instruction::Ldp {
                    rd1: r1,
                    rd2: r2,
                    rn: r3,
                    offset: imm,
                },
                6 => Instruction::Ldm {
                    list: RegList::of(&[Reg::x(1 + a % 15), Reg::x(16 + b % 15)]),
                    rn: r3,
                },
                7 => Instruction::Bc {
                    cond: conds[b as usize % 6],
                    rn: r2,
                    rm: r3,
                    target: imm as u64,
                },
                8 => Instruction::Cbz {
                    rn: r2,
                    target: imm as u64,
                },
                9 => Instruction::Bl { target: imm as u64 },
                10 => Instruction::Ldar { rd: r1, rn: r2 },
                11 => Instruction::Stlr { rt: r1, rn: r2 },
                12 => Instruction::Vld {
                    vd: Reg::x((a % 14) * 2),
                    rn: r2,
                    offset: imm,
                },
                _ => Instruction::LdrIdx {
                    rd: r1,
                    rn: r2,
                    rm: r3,
                    size: sizes[c as usize % 4],
                },
            };
            insts.push(inst);
            lvp_isa::encode(inst, &mut words);
        }
        // Decode the whole stream back.
        let mut cursor = 0usize;
        for expected in &insts {
            let (got, used) = lvp_isa::decode(&words[cursor..]).expect("decode");
            assert_eq!(got, *expected, "case {case}");
            cursor += used;
        }
        assert_eq!(cursor, words.len(), "case {case}");
    }
}

#[test]
fn trace_serialization_roundtrips() {
    let mut g = Gen::new(0x7ace);
    for case in 0..CASES {
        let ops = g.bytes(4, 40);
        let t = Emulator::new(random_program(&ops)).run(2_000).trace;
        let mut buf = Vec::new();
        lvp_trace::write_trace(&t, &mut buf).expect("write");
        let back = lvp_trace::read_trace(buf.as_slice()).expect("read");
        assert_eq!(back.records(), t.records(), "case {case}");
    }
}

#[test]
fn fpc_value_stays_bounded() {
    let mut g = Gen::new(0xf9c);
    for case in 0..CASES {
        let mut f = dlvp::Fpc::paper_apt(42);
        let n = g.below(300);
        for _ in 0..n {
            if g.below(2) == 0 {
                f.up();
            } else {
                f.down();
            }
            assert!(f.value() <= 3, "case {case}");
            assert_eq!(f.is_confident(), f.value() == 3, "case {case}");
        }
    }
}

/// The runner's core determinism property: the same matrix run twice —
/// and with 1 vs. 4 worker threads — yields identical `SchemeOutcome`
/// stats and byte-identical serialized results.
#[test]
fn matrix_runner_is_schedule_invariant() {
    let spec = MatrixSpec {
        workloads: vec![
            "aifirf".to_string(),
            "nat".to_string(),
            "perlbmk".to_string(),
        ],
        schemes: vec![SchemeKind::Baseline, SchemeKind::Dlvp, SchemeKind::Vtage],
        variants: vec![ConfigVariant::Default, ConfigVariant::OracleReplay],
        budget: 8_000,
        sample: None,
    };
    let one_a = run_matrix(&spec, 1);
    let one_b = run_matrix(&spec, 1);
    assert_eq!(
        one_a, one_b,
        "same spec, same worker count must be identical"
    );

    let four = run_matrix(&spec, 4);
    assert_eq!(one_a, four, "1-thread and 4-thread runs must be identical");
    assert_eq!(
        one_a.to_json().pretty(),
        four.to_json().pretty(),
        "serialized bytes must not depend on the thread schedule"
    );
    // Every job really ran: canonical order and per-job outcomes present.
    assert_eq!(one_a.jobs.len(), 3 * 3 * 2);
    for (i, job) in one_a.jobs.iter().enumerate() {
        assert!(job.outcome.stats.cycles > 0, "job {i} has zero cycles");
        assert_eq!(job.seed, job.spec.seed());
    }
}

/// A randomly mutated — but always valid — [`SimConfig`], spanning every
/// enum variant and a wide numeric range on the table/width knobs.
fn random_valid_config(g: &mut Gen) -> lvp_uarch::SimConfig {
    use lvp_uarch::SimConfig;

    // Seed from a random preset so the CoreConfig side also varies.
    let names = SimConfig::preset_names();
    let mut cfg = SimConfig::preset(names[g.below(names.len() as u64) as usize])
        .expect("preset_names entries resolve");

    cfg.core.frontend_width = 1 + g.below(8) as u32;
    cfg.core.fetch_buffer = cfg.core.frontend_width as usize * (1 + g.below(4) as usize);
    cfg.core.backend_width = 1 + g.below(8) as u32;
    cfg.core.rob_entries = 16 << g.below(5);
    cfg.core.pvt_entries = 1 + g.below(64) as usize;
    cfg.core.value_check_penalty = g.below(8) as u32;

    cfg.dlvp.prefetch_on_miss = g.below(2) == 0;
    cfg.dlvp.use_lscd = g.below(2) == 0;
    cfg.dlvp.way_prediction = g.below(2) == 0;
    cfg.dlvp.paq_entries = 1 + g.below(64) as usize;
    cfg.dlvp.paq_window = 1 + g.below(16);

    cfg.pap.entries = 1 << (2 + g.below(12));
    cfg.pap.tag_bits = 4 + g.below(20) as u32;
    cfg.pap.history_bits = 1 + g.below(32) as u32;
    cfg.pap.addr_width = if g.below(2) == 0 {
        lvp_uarch::AddrWidth::A32
    } else {
        lvp_uarch::AddrWidth::A49
    };
    cfg.pap.alloc_policy = if g.below(2) == 0 {
        lvp_uarch::AllocPolicy::Always
    } else {
        lvp_uarch::AllocPolicy::RespectConfidence
    };
    cfg.pap.fpc_denoms = [1 + g.below(8) as u32, g.below(9) as u32, g.below(9) as u32];

    cfg.cap.entries = 1 << (2 + g.below(12));
    cfg.cap.confidence = 1 + g.below(64) as u32;

    cfg.vtage.entries = 1 << (2 + g.below(10));
    cfg.vtage.histories = (0..1 + g.below(5)).map(|_| g.below(30) as u32).collect();
    cfg.vtage.targets = if g.below(2) == 0 {
        lvp_uarch::VtageTargets::LoadsOnly
    } else {
        lvp_uarch::VtageTargets::AllInstructions
    };
    cfg.vtage.filter = match g.below(3) {
        0 => lvp_uarch::VtageFilter::Vanilla,
        1 => lvp_uarch::VtageFilter::Dynamic,
        _ => lvp_uarch::VtageFilter::Static,
    };
    cfg.vtage.chunk_aware = g.below(2) == 0;
    cfg.vtage.filter_warmup = g.below(256);

    cfg
}

/// Property: any valid `SimConfig` survives a full serialize → text →
/// parse → deserialize cycle losslessly, and the round-tripped config is
/// still valid.
#[test]
fn simconfig_json_round_trips_for_arbitrary_valid_configs() {
    use lvp_json::{FromJson, Json, ToJson};
    use lvp_uarch::SimConfig;

    let mut g = Gen::new(0x51c0_7f16);
    for case in 0..CASES {
        let cfg = random_valid_config(&mut g);
        assert!(
            cfg.validate().is_ok(),
            "case {case}: generator made an invalid config"
        );

        let text = cfg.to_json().pretty();
        let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("case {case}: reparse: {e}"));
        let back =
            SimConfig::from_json(&parsed).unwrap_or_else(|e| panic!("case {case}: from_json: {e}"));
        assert_eq!(cfg, back, "case {case}: round-trip changed the config");
        assert!(
            back.validate().is_ok(),
            "case {case}: round-trip broke validity"
        );
        assert_eq!(
            text,
            back.to_json().pretty(),
            "case {case}: second serialization differs"
        );
    }
}

/// Property: every registered scheme's display name *and* short label parse
/// back to the same scheme, including through arbitrary case mangling.
#[test]
fn schemekind_names_and_labels_round_trip() {
    let mut g = Gen::new(0xface_0ff5);
    for kind in SchemeKind::all() {
        assert_eq!(SchemeKind::from_name(kind.name()), Some(kind));
        assert_eq!(SchemeKind::from_name(kind.label()), Some(kind));
        // from_name is documented case-insensitive: mangle randomly.
        for _ in 0..CASES {
            let mangled: String = kind
                .name()
                .chars()
                .map(|c| {
                    if g.below(2) == 0 {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect();
            assert_eq!(SchemeKind::from_name(&mangled), Some(kind), "{mangled}");
        }
    }
    assert_eq!(
        SchemeKind::from_name("tournament"),
        Some(SchemeKind::Tournament)
    );
    assert_eq!(SchemeKind::from_name("nonesuch"), None);
}

#[test]
fn incremental_history_folds_match_the_reference_fold() {
    use dlvp::dvtage::DvtageConfig;
    use lvp_branch::ittage::IttageConfig;
    use lvp_branch::tage::TageConfig;
    use lvp_branch::GlobalHistory;
    use lvp_uarch::VtageConfig;

    // Every (len, width) pair the predictors fold...
    let mut pairs = Vec::new();
    let tage = TageConfig::default_32kb();
    for &hl in &tage.history_lengths {
        pairs.extend([
            (hl, tage.tagged_log2),
            (hl, tage.tag_bits),
            (hl, tage.tag_bits - 1),
        ]);
    }
    let ittage = IttageConfig::default_32kb();
    for &hl in &ittage.history_lengths {
        pairs.extend([(hl, ittage.tagged_log2), (hl, ittage.tag_bits)]);
    }
    let vtage = VtageConfig::default();
    for &hl in &vtage.histories {
        let bits = vtage.entries.trailing_zeros().max(1);
        pairs.extend([(hl, bits), (hl, vtage.tag_bits)]);
    }
    let dvtage = DvtageConfig::default();
    for &hl in &dvtage.histories {
        let bits = dvtage.entries.trailing_zeros().max(1);
        pairs.extend([(hl, bits), (hl, dvtage.tag_bits)]);
    }
    // ...plus the edges: empty folds, folds narrower than their width,
    // exact multiples of the width, full-width and full-capacity folds.
    pairs.extend([
        (0, 1),
        (0, 8),
        (0, 64),
        (1, 1),
        (3, 8),
        (7, 64),
        (16, 8),
        (64, 16),
        (64, 64),
        (96, 32),
        (127, 10),
        (128, 1),
        (128, 64),
    ]);
    assert!(pairs.contains(&(0, 8)) && pairs.contains(&(75, 10)));

    for seed in 0..4u64 {
        let mut g = Gen::new(0xf01d ^ seed);
        let mut h = GlobalHistory::new();
        // Track mid-stream for odd seeds: registers start from the
        // history's current contents.
        let warm = if seed % 2 == 1 { 200 } else { 0 };
        for _ in 0..warm {
            h.push(g.below(2) == 1);
        }
        let folds: Vec<_> = pairs.iter().map(|&(n, w)| h.track(n, w)).collect();
        // Taken probability varies per seed: unbiased, mostly taken, mostly
        // not taken, and long same-direction runs.
        let mut run_left = 0u64;
        let mut run_dir = false;
        for step in 0..12_000 {
            let taken = match seed {
                0 => g.below(2) == 1,
                1 => g.below(8) != 0,
                2 => g.below(8) == 0,
                _ => {
                    if run_left == 0 {
                        run_left = 1 + g.below(40);
                        run_dir = !run_dir;
                    }
                    run_left -= 1;
                    run_dir
                }
            };
            h.push(taken);
            for (&(n, w), &f) in pairs.iter().zip(&folds) {
                assert!(h.is_tracked(f));
                assert_eq!(
                    h.fold(f),
                    h.folded(n, w),
                    "seed {seed} push {step}: fold ({n}, {w}) diverged"
                );
            }
        }
    }
}
