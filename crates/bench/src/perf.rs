//! The sim-throughput regression gate: a fixed benchmark matrix, a
//! committed baseline (`BENCH_simcore.json`), and a tolerance-banded
//! comparison CI runs on every change.
//!
//! The matrix covers the three hot paths a perf regression can hide in:
//!
//! * **simcore** — six workloads × three registry schemes through the
//!   cycle-level `Core::run` loop at a fixed budget;
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
use dlvp::{DlvpConfig, PapConfig};
use lvp_analysis::XvalConfig;
use lvp_fuzz::{run_seed, OracleConfig, SynthProfile};
use lvp_json::{DecodeError, Fields, FromJson, Json, ToJson};
use lvp_obs::{NullSink, PhaseSink};
use lvp_store::{request_key, Store};
use lvp_uarch::{CoreConfig, FunctionalTier, SampleSpec, SimConfig, SimStats, SimpleTier};

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
pub const SIMCORE_SCHEMES: [SchemeKind; 3] =
    [SchemeKind::Baseline, SchemeKind::Vtage, SchemeKind::Dlvp];

/// Per-workload budget of the simcore phase (matches the historical
/// `BENCH_simcore.json` rows).
pub const SIMCORE_BUDGET: u64 = 50_000;

/// The tier phases: the same six workloads through the cheap execution
/// tiers (`tier_functional`, `tier_simple`) and through fast-forward +
/// sampled cycle-level DLVP (`tier_sampled`), at the simcore budget.
pub const TIER_PHASES: [&str; 3] = ["tier_functional", "tier_simple", "tier_sampled"];

/// The `tier_sampled` phase's sampling spec: skip the first 10k
/// instructions, then per 10k-instruction period run 2k warm-only and 4k
/// detailed — 16k detailed instructions out of the 50k budget.
pub const TIER_SAMPLE: SampleSpec = SampleSpec {
    ff: 10_000,
    warmup: 2_000,
    detail: 4_000,
    period: 10_000,
};

/// The store phases: the content-addressed result store's two hot paths,
/// per simcore workload — `store_cold` (miss: lookup, simulate, record)
/// and `store_warm` (hit: lookup + payload decode, no simulation), both
/// against an on-disk sharded store so the cells time the real CAS path.
pub const STORE_PHASES: [&str; 2] = ["store_cold", "store_warm"];

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

/// One tier benchmark cell: phase name, scheme label, and the measured
/// closure (which borrows the tier and the trace).
type TierCell<'a> = (&'static str, String, Box<dyn FnMut() -> SimStats + 'a>);

/// Runs the full benchmark matrix serially (measurement never shares the
/// machine with other jobs of the same run) and returns one row per cell.
/// `spin > 0` injects the deliberate host-side slowdown into the simcore
/// phase — deterministic fields are unaffected by construction.
pub fn run_benchmarks<P: PhaseSink>(policy: &BenchPolicy, spin: u32, phases: &P) -> Vec<BenchRow> {
    let policy = policy.normalized();
    let mut rows = Vec::new();
    let cfg = SimConfig::default();
    let run = |trace: &lvp_trace::Trace, scheme: SchemeKind, cfg: &SimConfig| {
        run_scheme_with(trace, scheme, cfg, NullSink, spin).0
    };

    let mut span = phases.span(0, "bench:simcore");
    let (mut total_cycles, mut total_instr) = (0u64, 0u64);
    for name in SIMCORE_WORKLOADS {
        let w = lvp_workloads::by_name(name).expect("fixed benchmark workload");
        let trace = phases.time(0, "build_trace", || w.trace(SIMCORE_BUDGET));
        for scheme in SIMCORE_SCHEMES {
            let mut cell = if P::ENABLED {
                Some(phases.span(0, &format!("job:{}/simcore/{}", name, scheme.name())))
            } else {
                None
            };
            let outcome = run(&trace, scheme, &cfg);
            let m = policy.measure(|| std::hint::black_box(run(&trace, scheme, &cfg)));
            if let Some(c) = cell.as_mut() {
                c.charge(outcome.stats.cycles, outcome.stats.instructions, 1);
                c.finish();
            }
            total_cycles += outcome.stats.cycles;
            total_instr += outcome.stats.instructions;
            rows.push(BenchRow::sim(
                ("simcore", name, outcome.scheme.name()),
                &outcome.stats,
                &m,
            ));
        }
    }
    span.charge(total_cycles, total_instr, rows.len() as u64);
    span.finish();

    // Tier cells: same workloads, alternative execution tiers. The spin
    // reaches every tier (the functional tier included), so
    // `--inject-slowdown` provably trips the gate on the fastest path too.
    let mut span = phases.span(0, "bench:tiers");
    let (mut tier_cycles, mut tier_instr) = (0u64, 0u64);
    let sampled_cfg = SimConfig {
        sample: Some(TIER_SAMPLE),
        ..SimConfig::default()
    };
    for name in SIMCORE_WORKLOADS {
        let w = lvp_workloads::by_name(name).expect("fixed benchmark workload");
        let trace = phases.time(0, "build_trace", || w.trace(SIMCORE_BUDGET));
        let mut functional = FunctionalTier::new();
        functional.set_host_spin(spin);
        let mut simple = SimpleTier::new(CoreConfig::default());
        simple.set_host_spin(spin);
        let cells: [TierCell<'_>; 3] = [
            (
                "tier_functional",
                "functional".into(),
                Box::new(|| functional.run(&trace)),
            ),
            (
                "tier_simple",
                "simple".into(),
                Box::new(|| simple.run(&trace)),
            ),
            (
                "tier_sampled",
                SchemeKind::Dlvp.name().into(),
                Box::new(|| run(&trace, SchemeKind::Dlvp, &sampled_cfg).stats),
            ),
        ];
        for (phase, scheme, mut run) in cells {
            let mut cell = if P::ENABLED {
                Some(phases.span(0, &format!("job:{}/{}/{}", name, phase, scheme)))
            } else {
                None
            };
            let stats = run();
            let m = policy.measure(|| std::hint::black_box(run()));
            if let Some(c) = cell.as_mut() {
                c.charge(stats.cycles, stats.instructions, 1);
                c.finish();
            }
            tier_cycles += stats.cycles;
            tier_instr += stats.instructions;
            rows.push(BenchRow::sim((phase, name, &scheme), &stats, &m));
        }
    }
    span.charge(
        tier_cycles,
        tier_instr,
        (SIMCORE_WORKLOADS.len() * 3) as u64,
    );
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

/// Geometric-mean wall-clock speedup of each tier phase over the
/// cycle-level simcore DLVP cell on the same workload — the bench CLI's
/// tier summary line. Phases without matching cells are omitted.
pub fn tier_speedups(rows: &[BenchRow]) -> Vec<(&'static str, f64)> {
    TIER_PHASES
        .iter()
        .filter_map(|&phase| {
            let (mut log_sum, mut n) = (0f64, 0u32);
            for r in rows.iter().filter(|r| r.phase == phase) {
                let base = rows.iter().find(|b| {
                    b.phase == "simcore"
                        && b.workload == r.workload
                        && b.scheme == SchemeKind::Dlvp.name()
                })?;
                log_sum += (base.median_ns.max(1) as f64 / r.median_ns.max(1) as f64).ln();
                n += 1;
            }
            (n > 0).then(|| (phase, (log_sum / n as f64).exp()))
        })
        .collect()
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
    fn tier_speedups_geomean_over_matching_workloads() {
        let mk = |phase: &str, workload: &str, scheme: &str, median: u64| BenchRow {
            phase: phase.into(),
            workload: workload.into(),
            scheme: scheme.into(),
            budget: 50_000,
            det: vec![],
            median_ns: median,
            min_ns: median,
            max_ns: median,
            sim_cycles_per_sec: 0.0,
        };
        let rows = vec![
            mk("simcore", "aifirf", "DLVP", 8_000),
            mk("simcore", "nat", "DLVP", 2_000),
            mk("tier_functional", "aifirf", "functional", 1_000),
            mk("tier_functional", "nat", "functional", 1_000),
        ];
        let sp = tier_speedups(&rows);
        assert_eq!(sp.len(), 1);
        assert_eq!(sp[0].0, "tier_functional");
        // geomean(8x, 2x) = 4x
        assert!((sp[0].1 - 4.0).abs() < 1e-9, "got {}", sp[0].1);
        assert!(tier_speedups(&[]).is_empty());
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
