//! The sim-throughput regression gate: a fixed benchmark matrix, a
//! committed baseline (`BENCH_simcore.json`), and a tolerance-banded
//! comparison CI runs on every change.
//!
//! The matrix covers the hot paths a perf regression can hide in, end to
//! end and layer by layer:
//!
//! * **simcore** — six workloads × four registry schemes through the
//!   cycle-level `Core::run` loop at a fixed budget;
//! * **emu** — the same six workloads' record streams drained from the
//!   emulator;
//! * **mem** — the same six workloads' loads and stores replayed through
//!   the memory hierarchy alone;
//! * **tier_sampled** — fast-forward + sampled cycle-level DLVP on the
//!   same six workloads;
//! * **store** — the result store's cold-miss and warm-hit paths;
//! * **predictors** — PAP, CAP, TAGE and VTAGE lookup+train on their own
//!   over one workload's trace;
//! * **analyze** — the static + dependence passes plus the validating DLVP
//!   simulation on one workload;
//! * **fuzz_oracle** — synthesize/execute/differential-check over a fixed
//!   seed range of the `smoke` profile.
//!
//! Each cell is measured as **median-of-N (N ≥ 5) per-run wall time after
//! a discarded warm-up** ([`BenchPolicy::measure`]): the warm-up settles caches
//! and the allocator, and the median is robust to one-off scheduler noise
//! that would whipsaw a mean-based gate. `bench --check` compares current
//! medians against the committed baseline under a relative tolerance band
//! (default [`DEFAULT_TOL_REL`], i.e. fail only when slower than
//! `(1 + tol) ×` baseline — wide enough for machine-to-machine variance,
//! tight enough to catch the step-function slowdowns that matter).
//! Deterministic fields (instruction counts, simulated cycles, findings)
//! are compared **exactly**: drift there is a behaviour change wearing a
//! benchmark's clothes, and fails the gate at any speed.
//!
//! `--inject-slowdown` threads a busy-loop into the core step
//! ([`crate::run_scheme_with`]'s `spin`) to prove the gate bites: results stay
//! bit-identical, wall time multiplies, `--check` must fail.

use crate::analysis::analyze_workload;
use crate::experiments::run_scheme_with;
pub use crate::microbench::BenchPolicy;
use crate::microbench::Measurement;
use crate::service::sim_request_doc;
use crate::{SchemeKind, SchemeOutcome};
use dlvp::{evaluate_standalone, AddrEval, Cap, DlvpConfig, Pap, PapConfig, Vtage};
use lvp_analysis::XvalConfig;
use lvp_branch::{GlobalHistory, Tage};
use lvp_fuzz::{run_seed, OracleConfig, SynthProfile};
use lvp_isa::BranchKind;
use lvp_json::{DecodeError, Fields, FromJson, Json, ToJson};
use lvp_mem::{HierarchyConfig, HierarchyStats, MemoryHierarchy};
use lvp_obs::{NullSink, PhaseSink};
use lvp_store::{request_key, Store};
use lvp_trace::{Fingerprinter, Trace};
use lvp_uarch::{SampleSpec, SimConfig, SimStats, VpScheme};

/// The simcore phase's workload list (≥ 6, spanning suites and behaviours).
pub const SIMCORE_WORKLOADS: [&str; 6] = [
    "aifirf",
    "autcor",
    "viterbi",
    "libquantum",
    "perlbmk",
    "nat",
];

/// The simcore phase's registry schemes.
pub const SIMCORE_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Baseline,
    SchemeKind::Vtage,
    SchemeKind::Dlvp,
    SchemeKind::Tournament,
];

/// Per-workload budget of the simcore phase (matches the historical
/// `BENCH_simcore.json` rows).
pub const SIMCORE_BUDGET: u64 = 50_000;

/// The emu phase: each simcore workload's record stream drained from the
/// emulator at the simcore budget. Its deterministic counters are the
/// architectural counts and the stream's fingerprint, which pins the
/// emulator's output exactly.
pub const EMU_PHASE: &str = "emu";

/// The fast-forward + sampled phase: cycle-level DLVP over the six simcore
/// workloads under [`TIER_SAMPLE`].
pub const TIER_SAMPLED_PHASE: &str = "tier_sampled";

/// The `tier_sampled` phase's sampling spec: skip the first 10k
/// instructions, then per 10k-instruction period run 2k warm-only and 4k
/// detailed — 16k detailed instructions out of the 50k budget.
pub const TIER_SAMPLE: SampleSpec = SampleSpec {
    ff: 10_000,
    warmup: 2_000,
    detail: 4_000,
    period: 10_000,
};

/// The mem phase: every load and store of a simcore workload's trace
/// replayed through `MemoryHierarchy::access_data` on one paper-default
/// hierarchy. Its deterministic counters are each level's hits and misses
/// and the TLB misses.
pub const MEM_PHASE: &str = "mem";

/// The store phases: the content-addressed result store's two hot paths,
/// per simcore workload — `store_cold` (miss: lookup, simulate, record)
/// and `store_warm` (hit: lookup + payload decode, no simulation), both
/// against an on-disk sharded store so the cells time the real CAS path.
pub const STORE_PHASES: [&str; 2] = ["store_cold", "store_warm"];

/// The predictors phase: each predictor's lookup+train on its own over
/// this workload's trace at the simcore budget, outside the core, by name
/// with the run that returns its deterministic counters.
pub const PREDICTORS_PHASE: &str = "predictors";
pub const PREDICTORS_WORKLOAD: &str = "aifirf";
pub const PREDICTORS: [(&str, PredictorRun); 4] = [
    ("PAP", |t| {
        addr_det(evaluate_standalone(t, &mut Pap::paper_default()))
    }),
    ("CAP", |t| {
        addr_det(evaluate_standalone(t, &mut Cap::with_confidence(8)))
    }),
    ("TAGE", run_tage),
    ("VTAGE", run_vtage),
];

/// A cell's deterministic counters, by name.
pub type Det = Vec<(&'static str, u64)>;

/// One predictors cell's run over a trace.
pub type PredictorRun = fn(&Trace) -> Det;

/// The analyze phase's workload and budget.
pub const ANALYZE_WORKLOAD: &str = "perlbmk";
pub const ANALYZE_BUDGET: u64 = 20_000;

/// The fuzz phase: this synth profile over seeds `0..FUZZ_SEEDS`.
pub const FUZZ_PROFILE: &str = "smoke";
pub const FUZZ_SEEDS: u64 = 5;

/// Default relative tolerance: fail when a median exceeds `2×` baseline.
/// Wall-clock on shared CI hosts varies tens of percent run to run; a 100%
/// band stays quiet through that while still catching the integer-factor
/// slowdowns a hot-loop regression produces (see DESIGN.md §12 for the
/// baseline-refresh policy).
pub const DEFAULT_TOL_REL: f64 = 1.0;

/// `--inject-slowdown`'s spin count: enough busy-loop iterations per
/// simulated instruction to push every simcore cell far past any sane
/// tolerance band without stretching the run unreasonably.
pub const INJECT_SPIN: u32 = 2_500;

/// The measurement policy as the baseline document records it.
fn policy_json(policy: BenchPolicy) -> Json {
    Json::obj([
        ("samples", (policy.samples as u64).to_json()),
        ("warmup_ms", (policy.warmup.as_millis() as u64).to_json()),
        (
            "min_sample_ms",
            (policy.min_sample.as_millis() as u64).to_json(),
        ),
        ("aggregate", "median".to_json()),
        ("warmup_discarded", true.to_json()),
    ])
}

/// One benchmark cell: identity, exact deterministic counters, and the
/// measured wall-clock statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    pub phase: String,
    pub workload: String,
    pub scheme: String,
    pub budget: u64,
    /// Deterministic counters, compared **exactly** against the baseline.
    pub det: Vec<(String, u64)>,
    pub median_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub sim_cycles_per_sec: f64,
}

impl BenchRow {
    /// Unique row identity within the matrix.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.phase, self.workload, self.scheme)
    }

    /// A measured cell; its throughput is `sim_cycles` over the median.
    fn measured(
        (phase, workload, scheme): (&str, &str, &str),
        budget: u64,
        det: Vec<(&str, u64)>,
        sim_cycles: u64,
        m: &Measurement,
    ) -> BenchRow {
        let median_ns = m.median.as_nanos() as u64;
        BenchRow {
            phase: phase.into(),
            workload: workload.into(),
            scheme: scheme.into(),
            budget,
            det: det.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            median_ns,
            min_ns: m.min.as_nanos() as u64,
            max_ns: m.max.as_nanos() as u64,
            sim_cycles_per_sec: lvp_obs::sim_cycles_per_sec(sim_cycles, median_ns),
        }
    }

    /// A measured simulation cell at [`SIMCORE_BUDGET`], whose
    /// deterministic counters are the run's instructions and cycles.
    fn sim(id: (&str, &str, &str), stats: &SimStats, m: &Measurement) -> BenchRow {
        let det = vec![
            ("instructions", stats.instructions),
            ("sim_cycles", stats.cycles),
        ];
        BenchRow::measured(id, SIMCORE_BUDGET, det, stats.cycles, m)
    }
}

/// Keys every row carries besides its deterministic counters; anything
/// else in a serialized row parses back as a `det` counter.
const ROW_META_KEYS: [&str; 8] = [
    "phase",
    "workload",
    "scheme",
    "budget",
    "median_ns_per_run",
    "min_ns_per_run",
    "max_ns_per_run",
    "sim_cycles_per_sec",
];

impl ToJson for BenchRow {
    fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("phase".into(), self.phase.to_json()),
            ("workload".into(), self.workload.to_json()),
            ("scheme".into(), self.scheme.to_json()),
            ("budget".into(), self.budget.to_json()),
        ];
        for (k, v) in &self.det {
            pairs.push((k.clone(), v.to_json()));
        }
        pairs.push(("median_ns_per_run".into(), self.median_ns.to_json()));
        pairs.push(("min_ns_per_run".into(), self.min_ns.to_json()));
        pairs.push(("max_ns_per_run".into(), self.max_ns.to_json()));
        pairs.push((
            "sim_cycles_per_sec".into(),
            self.sim_cycles_per_sec.to_json(),
        ));
        Json::Object(pairs)
    }
}

impl FromJson for BenchRow {
    /// Parses a serialized row (baseline or `--out` document): the meta
    /// keys by name, every other key as a `det` counter.
    fn from_json(j: &Json) -> Result<BenchRow, DecodeError> {
        let f = Fields::of(j)?;
        let det = f
            .pairs()
            .iter()
            .filter(|(k, _)| !ROW_META_KEYS.contains(&k.as_str()))
            .map(|(k, v)| Ok((k.clone(), u64::from_json(v).map_err(|e| e.at(k))?)))
            .collect::<Result<Vec<_>, DecodeError>>()?;
        Ok(BenchRow {
            phase: f.req("phase")?,
            workload: f.req("workload")?,
            scheme: f.req("scheme")?,
            budget: f.req("budget")?,
            det,
            median_ns: f.req("median_ns_per_run")?,
            min_ns: f.req("min_ns_per_run")?,
            max_ns: f.req("max_ns_per_run")?,
            sim_cycles_per_sec: f.req("sim_cycles_per_sec")?,
        })
    }
}

/// Runs the full benchmark matrix serially (measurement never shares the
/// machine with other jobs of the same run) and returns one row per cell.
/// `spin > 0` injects the deliberate host-side slowdown into the simcore
/// phase — deterministic fields are unaffected by construction.
pub fn run_benchmarks<P: PhaseSink>(policy: &BenchPolicy, spin: u32, phases: &P) -> Vec<BenchRow> {
    let policy = policy.normalized();
    let mut rows = Vec::new();
    let cfg = SimConfig::default();
    let run = |trace: &Trace, scheme: SchemeKind, cfg: &SimConfig| {
        run_scheme_with(trace, scheme, cfg, NullSink, spin).0
    };

    let mut span = phases.span(0, "bench:simcore");
    let (mut total_cycles, mut total_instr) = (0u64, 0u64);
    for name in SIMCORE_WORKLOADS {
        let w = lvp_workloads::by_name(name).expect("fixed benchmark workload");
        let trace = phases.time(0, "build_trace", || w.trace(SIMCORE_BUDGET));
        for scheme in SIMCORE_SCHEMES {
            let (row, stats) = sim_cell(phases, &policy, ("simcore", name, scheme.name()), || {
                run(&trace, scheme, &cfg).stats
            });
            total_cycles += stats.cycles;
            total_instr += stats.instructions;
            rows.push(row);
        }
    }
    span.charge(total_cycles, total_instr, rows.len() as u64);
    span.finish();

    let mut span = phases.span(0, "bench:emu");
    let mut emu_instr = 0u64;
    for name in SIMCORE_WORKLOADS {
        let w = lvp_workloads::by_name(name).expect("fixed benchmark workload");
        let drain = || {
            let (mut n, mut f) = ([0u64; 4], Fingerprinter::new());
            for r in w.records(SIMCORE_BUDGET) {
                n[0] += 1;
                n[1] += u64::from(r.inst.is_load());
                n[2] += u64::from(r.inst.is_store());
                n[3] += u64::from(r.inst.is_branch());
                f.push(&r);
            }
            vec![
                ("instructions", n[0]),
                ("loads", n[1]),
                ("stores", n[2]),
                ("branches", n[3]),
                ("fingerprint", f.finish()),
            ]
        };
        let det = drain();
        let m = policy.measure(|| std::hint::black_box(drain()));
        emu_instr += det[0].1;
        rows.push(BenchRow::measured(
            (EMU_PHASE, name, "records"),
            SIMCORE_BUDGET,
            det,
            0,
            &m,
        ));
    }
    span.charge(0, emu_instr, SIMCORE_WORKLOADS.len() as u64);
    span.finish();

    let mut span = phases.span(0, "bench:mem");
    let mut mem_accesses = 0u64;
    for name in SIMCORE_WORKLOADS {
        let w = lvp_workloads::by_name(name).expect("fixed benchmark workload");
        let trace = phases.time(0, "build_trace", || w.trace(SIMCORE_BUDGET));
        let stats = replay_memory(&trace, cfg.core.mem);
        let m = policy.measure(|| std::hint::black_box(replay_memory(&trace, cfg.core.mem)));
        mem_accesses += stats.l1d.accesses;
        let det = vec![
            ("l1d_hits", stats.l1d.hits),
            ("l1d_misses", stats.l1d.misses),
            ("l2_hits", stats.l2.hits),
            ("l2_misses", stats.l2.misses),
            ("l3_hits", stats.l3.hits),
            ("l3_misses", stats.l3.misses),
            ("tlb_misses", stats.tlb.misses),
        ];
        rows.push(BenchRow::measured(
            (MEM_PHASE, name, "hierarchy"),
            SIMCORE_BUDGET,
            det,
            0,
            &m,
        ));
    }
    span.charge(0, mem_accesses, SIMCORE_WORKLOADS.len() as u64);
    span.finish();

    let mut span = phases.span(0, "bench:tier_sampled");
    let (mut tier_cycles, mut tier_instr) = (0u64, 0u64);
    let sampled_cfg = SimConfig {
        sample: Some(TIER_SAMPLE),
        ..SimConfig::default()
    };
    for name in SIMCORE_WORKLOADS {
        let w = lvp_workloads::by_name(name).expect("fixed benchmark workload");
        let trace = phases.time(0, "build_trace", || w.trace(SIMCORE_BUDGET));
        let scheme = SchemeKind::Dlvp;
        let id = (TIER_SAMPLED_PHASE, name, scheme.name());
        let (row, stats) = sim_cell(phases, &policy, id, || {
            run(&trace, scheme, &sampled_cfg).stats
        });
        tier_cycles += stats.cycles;
        tier_instr += stats.instructions;
        rows.push(row);
    }
    span.charge(tier_cycles, tier_instr, SIMCORE_WORKLOADS.len() as u64);
    span.finish();

    // Store-path cells: cold-miss (evict, lookup, simulate, record) vs
    // warm-hit (lookup + payload decode, zero simulation) through the real
    // on-disk sharded CAS, one store per workload under a temp root. The
    // warm cell's deterministic counters come from the *decoded* payload,
    // so exact comparison against the baseline doubles as a round-trip
    // check of the stored outcome.
    let mut span = phases.span(0, "bench:store");
    let store_root = std::env::temp_dir().join(format!("lvp-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    let (mut store_cycles, mut store_instr) = (0u64, 0u64);
    for name in SIMCORE_WORKLOADS {
        let w = lvp_workloads::by_name(name).expect("fixed benchmark workload");
        let trace = phases.time(0, "build_trace", || w.trace(SIMCORE_BUDGET));
        let scheme = SchemeKind::Dlvp;
        let store = Store::open(store_root.join(name)).expect("open benchmark store");
        let key = request_key(&sim_request_doc(
            trace.fingerprint(),
            SIMCORE_BUDGET,
            scheme.name(),
            &cfg,
        ));

        let outcome = run(&trace, scheme, &cfg);
        let m = policy.measure(|| {
            store.gc(Some(0)).expect("evict benchmark store");
            assert!(store.get(&key).expect("store get").is_none());
            let o = run(&trace, scheme, &cfg);
            store.put(&key, &o.to_json()).expect("store put");
            std::hint::black_box(o);
        });
        store_cycles += outcome.stats.cycles;
        store_instr += outcome.stats.instructions;
        rows.push(BenchRow::sim(
            ("store_cold", name, scheme.name()),
            &outcome.stats,
            &m,
        ));

        // The cold cell's last iteration left the entry in place — the
        // warm cell hits it on every lookup.
        let decoded = store
            .get(&key)
            .expect("store get")
            .and_then(|p| SchemeOutcome::from_json(&p).ok())
            .expect("warm entry present and decodable");
        let m = policy.measure(|| {
            let payload = store
                .get(&key)
                .expect("store get")
                .expect("warm entry present");
            let o = SchemeOutcome::from_json(&payload).expect("payload decodes");
            std::hint::black_box(o);
        });
        rows.push(BenchRow::sim(
            ("store_warm", name, scheme.name()),
            &decoded.stats,
            &m,
        ));
    }
    let _ = std::fs::remove_dir_all(&store_root);
    span.charge(
        store_cycles,
        store_instr,
        (SIMCORE_WORKLOADS.len() * STORE_PHASES.len()) as u64,
    );
    span.finish();

    let mut span = phases.span(0, "bench:predictors");
    let w = lvp_workloads::by_name(PREDICTORS_WORKLOAD).expect("fixed benchmark workload");
    let trace = phases.time(0, "build_trace", || w.trace(SIMCORE_BUDGET));
    for (predictor, run) in PREDICTORS {
        let det = run(&trace);
        let m = policy.measure(|| std::hint::black_box(run(&trace)));
        rows.push(BenchRow::measured(
            (PREDICTORS_PHASE, PREDICTORS_WORKLOAD, predictor),
            SIMCORE_BUDGET,
            det,
            0,
            &m,
        ));
    }
    span.charge(0, trace.len() as u64, PREDICTORS.len() as u64);
    span.finish();

    let mut span = phases.span(0, "bench:analyze");
    let w = lvp_workloads::by_name(ANALYZE_WORKLOAD).expect("fixed benchmark workload");
    let one = analyze_workload(
        &w,
        ANALYZE_BUDGET,
        PapConfig::default(),
        DlvpConfig::default(),
        &XvalConfig::default(),
    );
    let m = policy.measure(|| {
        std::hint::black_box(analyze_workload(
            &w,
            ANALYZE_BUDGET,
            PapConfig::default(),
            DlvpConfig::default(),
            &XvalConfig::default(),
        ))
    });
    span.charge(one.sim_cycles, one.sim_instructions, 1);
    span.finish();
    let det = vec![
        ("loads", one.loads.len() as u64),
        ("must_edges", one.dep.graph.must_edges().count() as u64),
        ("violations", one.violations.len() as u64),
        ("sim_cycles", one.sim_cycles),
    ];
    rows.push(BenchRow::measured(
        ("analyze", ANALYZE_WORKLOAD, "dlvp_xval"),
        ANALYZE_BUDGET,
        det,
        one.sim_cycles,
        &m,
    ));

    let mut span = phases.span(0, "bench:fuzz_oracle");
    let profile = SynthProfile::preset(FUZZ_PROFILE).expect("fixed benchmark profile");
    let oracle_cfg = OracleConfig::default();
    let run_all = || {
        (0..FUZZ_SEEDS)
            .map(|seed| run_seed(&profile, seed, &oracle_cfg))
            .collect::<Vec<_>>()
    };
    let outcomes = run_all();
    let dynamic: u64 = outcomes.iter().map(|o| o.dynamic as u64).sum();
    let hash_xor = outcomes.iter().fold(0u64, |h, o| h ^ o.program_hash);
    let m = policy.measure(|| std::hint::black_box(run_all()));
    span.charge(0, dynamic, FUZZ_SEEDS);
    span.finish();
    let det = vec![
        ("dynamic_instructions", dynamic),
        (
            "findings",
            outcomes.iter().map(|o| o.findings.len() as u64).sum(),
        ),
        (
            "soundness_defects",
            outcomes.iter().map(|o| o.soundness.len() as u64).sum(),
        ),
        ("program_hash_xor", hash_xor),
    ];
    rows.push(BenchRow::measured(
        ("fuzz_oracle", FUZZ_PROFILE, "differential"),
        FUZZ_SEEDS,
        det,
        0,
        &m,
    ));

    rows
}

/// Measures one simulation cell `id` = (phase, workload, scheme) under a
/// `job:` span charged with its simulated work, and returns its row and
/// stats.
fn sim_cell<P: PhaseSink>(
    phases: &P,
    policy: &BenchPolicy,
    id: (&str, &str, &str),
    mut run: impl FnMut() -> SimStats,
) -> (BenchRow, SimStats) {
    let mut job = P::ENABLED.then(|| phases.span(0, &format!("job:{}/{}/{}", id.1, id.0, id.2)));
    let stats = run();
    let m = policy.measure(|| std::hint::black_box(run()));
    if let Some(j) = job.as_mut() {
        j.charge(stats.cycles, stats.instructions, 1);
        j.finish();
    }
    (BenchRow::sim(id, &stats, &m), stats)
}

/// Replays every load and store of `trace`, in order, through a fresh
/// hierarchy built from `cfg` and returns its counters.
fn replay_memory(trace: &Trace, cfg: HierarchyConfig) -> HierarchyStats {
    let mut mem = MemoryHierarchy::new(cfg);
    for r in trace.records() {
        let is_load = r.inst.is_load();
        if is_load || r.inst.is_store() {
            mem.access_data(r.pc, r.eff_addr, is_load);
        }
    }
    mem.stats()
}

/// A standalone address predictor's (loads, predicted, correct).
fn addr_det(e: AddrEval) -> Det {
    vec![
        ("loads", e.loads),
        ("predicted", e.predicted),
        ("correct", e.correct),
    ]
}

/// TAGE over every conditional branch of `trace`, reading and pushing one
/// tracked history as the core does: (branches, mispredicts).
fn run_tage(trace: &Trace) -> Det {
    let (mut tage, mut hist) = (Tage::default_32kb(), GlobalHistory::new());
    tage.track_history(&mut hist);
    let (mut branches, mut mispredicts) = (0, 0);
    for r in trace.records() {
        if r.inst.branch_kind() == Some(BranchKind::Conditional) {
            let taken = r.taken();
            let p = tage.predict(r.pc, &hist);
            tage.update(r.pc, &hist, taken, p);
            hist.push(taken);
            branches += 1;
            mispredicts += u64::from(p.taken != taken);
        }
    }
    vec![("branches", branches), ("mispredicts", mispredicts)]
}

/// VTAGE first-chunk predict and train over every load of `trace`, under
/// the history of its conditional branches: (loads, predicted, correct).
fn run_vtage(trace: &Trace) -> Det {
    let (mut vtage, mut hist) = (Vtage::paper_default(), GlobalHistory::new());
    vtage.track_history(&mut hist);
    let (mut loads, mut predicted, mut correct) = (0, 0, 0);
    for r in trace.records() {
        if r.inst.is_load() {
            let p = vtage.predict_first_chunk(r.pc, &hist);
            vtage.train_first_chunk(r.pc, &hist, r.value);
            loads += 1;
            predicted += u64::from(p.is_some());
            correct += u64::from(p == Some(r.value));
        } else if r.inst.branch_kind() == Some(BranchKind::Conditional) {
            hist.push(r.taken());
        }
    }
    vec![
        ("loads", loads),
        ("predicted", predicted),
        ("correct", correct),
    ]
}

/// Serializes a benchmark run as the baseline document (schema v2: v1's
/// `runs` rows plus the measurement policy and the committed tolerance).
pub fn bench_doc(policy: &BenchPolicy, tol_rel: f64, rows: &[BenchRow]) -> Json {
    Json::obj([
        ("benchmark", "simcore".to_json()),
        ("version", 2u64.to_json()),
        ("unit", "simulated cycles per wall-clock second".to_json()),
        ("policy", policy_json(policy.normalized())),
        ("tolerance", Json::obj([("rel", tol_rel.to_json())])),
        (
            "runs",
            Json::Array(rows.iter().map(ToJson::to_json).collect()),
        ),
    ])
}

/// A parsed baseline: its committed tolerance and rows.
#[derive(Debug)]
pub struct Baseline {
    pub tol_rel: f64,
    pub rows: Vec<BenchRow>,
}

impl Baseline {
    /// Parses a baseline document. v1 documents (no `version`) are
    /// rejected with a refresh hint — their rows predate the matrix.
    pub fn parse(doc: &Json) -> Result<Baseline, String> {
        match doc.get("version") {
            Some(Json::U64(2)) => {}
            _ => {
                return Err(
                    "baseline is not schema v2 — refresh it with `bench --out BENCH_simcore.json`"
                        .to_string(),
                )
            }
        }
        let tol_rel = doc
            .get("tolerance")
            .and_then(|t| t.get("rel"))
            .and_then(Json::as_f64)
            .unwrap_or(DEFAULT_TOL_REL);
        let rows = Fields::of(doc)
            .and_then(|f| f.req("runs"))
            .map_err(|e| format!("baseline: {e}"))?;
        Ok(Baseline { tol_rel, rows })
    }
}

/// The gate verdict: hard failures (regressions, drift, matrix mismatch)
/// and advisory notes (rows much faster than baseline → refresh hint).
#[derive(Debug, Default)]
pub struct CheckReport {
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

impl CheckReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares a current run against the baseline. `tol_override` (the CLI's
/// `--tol-rel`) takes precedence over the baseline's committed tolerance.
pub fn check(baseline: &Baseline, current: &[BenchRow], tol_override: Option<f64>) -> CheckReport {
    let tol = tol_override.unwrap_or(baseline.tol_rel);
    let mut report = CheckReport::default();
    for cur in current {
        let key = cur.key();
        let Some(base) = baseline.rows.iter().find(|b| b.key() == key) else {
            report.failures.push(format!(
                "{key}: not in baseline — new matrix cell, refresh BENCH_simcore.json"
            ));
            continue;
        };
        if base.budget != cur.budget {
            report.failures.push(format!(
                "{key}: budget changed {} -> {} — refresh the baseline",
                base.budget, cur.budget
            ));
        }
        for (name, cur_v) in &cur.det {
            match base.det.iter().find(|(k, _)| k == name) {
                None => report.failures.push(format!(
                    "{key}: counter '{name}' not in baseline — refresh the baseline"
                )),
                Some((_, base_v)) if base_v != cur_v => report.failures.push(format!(
                    "{key}: deterministic counter '{name}' drifted {base_v} -> {cur_v} \
                     (behaviour change, not noise)"
                )),
                Some(_) => {}
            }
        }
        for (name, _) in &base.det {
            if !cur.det.iter().any(|(k, _)| k == name) {
                report.failures.push(format!(
                    "{key}: baseline counter '{name}' missing from current run"
                ));
            }
        }
        let limit = base.median_ns as f64 * (1.0 + tol);
        if cur.median_ns as f64 > limit {
            report.failures.push(format!(
                "{key}: median {} ns exceeds baseline {} ns by more than {:.0}% \
                 (limit {} ns)",
                cur.median_ns,
                base.median_ns,
                tol * 100.0,
                limit as u64
            ));
        } else if (cur.median_ns as f64) * (1.0 + tol) < base.median_ns as f64 {
            report.notes.push(format!(
                "{key}: median {} ns is far below baseline {} ns — consider refreshing \
                 the baseline to tighten the gate",
                cur.median_ns, base.median_ns
            ));
        }
    }
    for base in &baseline.rows {
        if !current.iter().any(|c| c.key() == base.key()) {
            report.failures.push(format!(
                "{}: in baseline but not in the current matrix — refresh the baseline",
                base.key()
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(phase: &str, workload: &str, median_ns: u64, det: &[(&str, u64)]) -> BenchRow {
        BenchRow {
            phase: phase.into(),
            workload: workload.into(),
            scheme: "DLVP".into(),
            budget: 50_000,
            det: det.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            median_ns,
            min_ns: median_ns / 2,
            max_ns: median_ns * 2,
            sim_cycles_per_sec: 1e6,
        }
    }

    fn baseline_of(rows: &[BenchRow]) -> Baseline {
        let doc = bench_doc(&BenchPolicy::default(), DEFAULT_TOL_REL, rows);
        Baseline::parse(&doc).expect("self-produced baseline parses")
    }

    #[test]
    fn rows_round_trip_through_json() {
        let r = row("simcore", "aifirf", 1_000_000, &[("sim_cycles", 23_535)]);
        let parsed = BenchRow::from_json(&r.to_json()).expect("round trip");
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json().pretty(), r.to_json().pretty());
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let rows = vec![
            row("simcore", "aifirf", 1_000_000, &[("sim_cycles", 100)]),
            row("analyze", "perlbmk", 2_000_000, &[("violations", 0)]),
        ];
        let report = check(&baseline_of(&rows), &rows, None);
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(report.notes.is_empty());
    }

    #[test]
    fn slowdowns_beyond_the_band_fail() {
        let base = vec![row("simcore", "aifirf", 1_000_000, &[])];
        let mut slow = base.clone();
        slow[0].median_ns = 2_100_000; // 2.1x > (1 + 1.0) x baseline
        let report = check(&baseline_of(&base), &slow, None);
        assert_eq!(report.failures.len(), 1, "failures: {:?}", report.failures);
        assert!(report.failures[0].contains("exceeds baseline"));

        // Within the band: passes.
        slow[0].median_ns = 1_900_000;
        assert!(check(&baseline_of(&base), &slow, None).passed());

        // A tighter override catches it.
        let tight = check(&baseline_of(&base), &slow, Some(0.5));
        assert!(!tight.passed());
    }

    #[test]
    fn deterministic_drift_fails_at_any_speed() {
        let base = vec![row("simcore", "aifirf", 1_000_000, &[("sim_cycles", 100)])];
        let mut drifted = base.clone();
        drifted[0].det[0].1 = 101;
        drifted[0].median_ns = 500_000; // faster, but still a failure
        let report = check(&baseline_of(&base), &drifted, None);
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("deterministic counter 'sim_cycles' drifted")));
    }

    #[test]
    fn matrix_shape_mismatches_fail_both_ways() {
        let base = vec![
            row("simcore", "aifirf", 1_000_000, &[]),
            row("simcore", "nat", 1_000_000, &[]),
        ];
        let current = vec![
            row("simcore", "aifirf", 1_000_000, &[]),
            row("simcore", "viterbi", 1_000_000, &[]),
        ];
        let report = check(&baseline_of(&base), &current, None);
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("not in baseline")));
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("not in the current matrix")));
    }

    #[test]
    fn much_faster_runs_note_a_refresh() {
        let base = vec![row("simcore", "aifirf", 10_000_000, &[])];
        let mut fast = base.clone();
        fast[0].median_ns = 1_000_000;
        let report = check(&baseline_of(&base), &fast, None);
        assert!(report.passed());
        assert_eq!(report.notes.len(), 1);
        assert!(report.notes[0].contains("refreshing"));
    }

    #[test]
    fn v1_baselines_are_rejected_with_a_refresh_hint() {
        let v1 = Json::obj([
            ("benchmark", "simcore".to_json()),
            ("runs", Json::Array(vec![])),
        ]);
        let err = Baseline::parse(&v1).expect_err("v1 must be rejected");
        assert!(err.contains("refresh"));
    }

    #[test]
    fn tier_sample_spec_is_valid() {
        TIER_SAMPLE.validate().expect("fixed tier sampling spec");
        assert_eq!(TIER_SAMPLE.period, 10_000);
    }

    #[test]
    fn policy_enforces_the_sample_floor() {
        let p = BenchPolicy {
            samples: 2,
            ..BenchPolicy::default()
        }
        .normalized();
        assert_eq!(p.samples, 5);
        assert_eq!(BenchPolicy::default().normalized().samples, 5);
    }
}
