//! Sharded, deterministic experiment runner.
//!
//! The figure binaries each re-run the full (workload × scheme) matrix
//! serially and print text. This module runs the whole matrix **once, in
//! parallel**, and persists machine-readable results:
//!
//! * a [`MatrixSpec`] expands to a flat job list — (workload ×
//!   [`ConfigVariant`] × [`SchemeKind`]) at a fixed instruction budget;
//! * [`run_matrix`] executes jobs on a `std::thread::scope` worker pool.
//!   Worker count comes from `--jobs`/[`default_jobs`]; results land in
//!   their job-index slot, so the output order — and the serialized bytes —
//!   are identical for 1 worker and 8;
//! * every job is a **pure function of its spec**: traces are rebuilt from
//!   per-kernel constant seeds, predictor FPC/LFSR seeds are per-entry
//!   constants, and no state is shared between jobs. The recorded per-job
//!   [`JobSpec::seed`] is the FNV-1a hash of the job identity — the
//!   deterministic seed namespace jobs draw from, and a quick fingerprint
//!   for log correlation;
//! * [`diff_matrices`] compares a run against a committed golden snapshot
//!   (`results/golden/`), reporting per-counter deltas and failing on drift
//!   beyond configurable [`Tolerances`].

use crate::experiments::{SchemeKind, SchemeOutcome};
use crate::service::{simulate_cached, SimPoint};
use crate::telemetry::Progress;
use lvp_json::{json_struct, DecodeError, FromJson, Json, ToJson};
use lvp_obs::{NullPhases, PhaseSink};
use lvp_store::SimService;
use lvp_uarch::{SampleSpec, SimConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A named, serializable configuration override. Variants rather than
/// closures so job specs can be parsed from the CLI, hashed into seeds, and
/// written into result files. Each variant is a [`SimConfig`] preset of the
/// same name; the full preset catalogue (ablation design points included)
/// lives in `SimConfig::preset_names`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigVariant {
    /// Paper Table 4 baseline.
    Default,
    /// Oracle-replay misprediction recovery (Figure 10).
    OracleReplay,
    /// Gshare instead of TAGE (branch-sensitivity ablation).
    Gshare,
    /// Stride prefetcher disabled.
    NoPrefetch,
    /// 2-wide front-end (fetch bottleneck study).
    NarrowFrontend,
    /// 8-entry PVT instead of 32 (pressure study).
    SmallPvt,
}

impl ConfigVariant {
    /// Every variant, in canonical matrix order.
    pub fn all() -> [ConfigVariant; 6] {
        [
            ConfigVariant::Default,
            ConfigVariant::OracleReplay,
            ConfigVariant::Gshare,
            ConfigVariant::NoPrefetch,
            ConfigVariant::NarrowFrontend,
            ConfigVariant::SmallPvt,
        ]
    }

    /// Stable name used in CLI flags and result files.
    pub fn name(self) -> &'static str {
        match self {
            ConfigVariant::Default => "default",
            ConfigVariant::OracleReplay => "oracle_replay",
            ConfigVariant::Gshare => "gshare",
            ConfigVariant::NoPrefetch => "no_prefetch",
            ConfigVariant::NarrowFrontend => "narrow_frontend",
            ConfigVariant::SmallPvt => "small_pvt",
        }
    }

    /// Parses a variant name (the inverse of [`ConfigVariant::name`]).
    pub fn from_name(name: &str) -> Option<ConfigVariant> {
        Self::all().into_iter().find(|v| v.name() == name)
    }

    /// The configuration this variant runs under: the [`SimConfig`] preset
    /// of the same name.
    pub fn config(self) -> SimConfig {
        SimConfig::preset(self.name()).expect("every variant names a preset")
    }
}

impl ToJson for ConfigVariant {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

impl FromJson for ConfigVariant {
    fn from_json(j: &Json) -> Result<ConfigVariant, DecodeError> {
        let name = String::from_json(j)?;
        ConfigVariant::from_name(&name)
            .ok_or_else(|| DecodeError::new(format!("unknown variant '{name}'")))
    }
}

/// One unit of work: run `scheme` on `workload` under `variant`'s config for
/// `budget` dynamic instructions.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub workload: String,
    pub scheme: SchemeKind,
    pub variant: ConfigVariant,
    pub budget: u64,
    /// Fast-forward + sampled execution, threaded from the matrix level.
    /// `None` (every committed artifact) runs the flat cycle-level path.
    pub sample: Option<SampleSpec>,
}

// The queue document `serve` reads (same optional `sample` key).
json_struct!(JobSpec {
    workload,
    scheme,
    variant,
    budget,
    ?sample,
});

impl JobSpec {
    /// The configuration this job runs under: its variant's preset, with
    /// its sampling spec.
    pub fn config(&self) -> SimConfig {
        SimConfig {
            sample: self.sample,
            ..self.variant.config()
        }
    }

    /// The simulation this job names.
    pub fn point(&self) -> SimPoint<'_> {
        SimPoint {
            workload: &self.workload,
            budget: self.budget,
            scheme: self.scheme,
            config: self.config(),
        }
    }

    /// Deterministic per-job seed: FNV-1a over the job identity. Identical
    /// specs get identical seeds on every run, machine, and thread schedule.
    pub fn seed(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
        };
        eat(self.workload.as_bytes());
        eat(self.scheme.name().as_bytes());
        eat(self.variant.name().as_bytes());
        eat(&self.budget.to_le_bytes());
        h
    }
}

/// The job matrix: the cartesian product of workloads, variants and schemes
/// at one instruction budget.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSpec {
    pub workloads: Vec<String>,
    pub schemes: Vec<SchemeKind>,
    pub variants: Vec<ConfigVariant>,
    pub budget: u64,
    /// Run every job under fast-forward + sampled execution (`--sample`).
    pub sample: Option<SampleSpec>,
}

impl MatrixSpec {
    /// The full paper matrix: every workload × {baseline, CAP, VTAGE, DLVP,
    /// DLVP+VTAGE} under the default configuration.
    pub fn full(budget: u64) -> MatrixSpec {
        MatrixSpec {
            workloads: lvp_workloads::names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            schemes: SchemeKind::all().to_vec(),
            variants: vec![ConfigVariant::Default],
            budget,
            sample: None,
        }
    }

    /// Expands to the flat job list in canonical (workload, variant, scheme)
    /// order — the order of records in the results file.
    pub fn expand(&self) -> Vec<JobSpec> {
        let mut jobs =
            Vec::with_capacity(self.workloads.len() * self.variants.len() * self.schemes.len());
        for w in &self.workloads {
            for &variant in &self.variants {
                for &scheme in &self.schemes {
                    jobs.push(JobSpec {
                        workload: w.clone(),
                        scheme,
                        variant,
                        budget: self.budget,
                        sample: self.sample,
                    });
                }
            }
        }
        jobs
    }

    /// Validates that every named workload exists, returning the unknown
    /// names otherwise.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let bad: Vec<String> = self
            .workloads
            .iter()
            .filter(|w| lvp_workloads::by_name(w).is_none())
            .cloned()
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad)
        }
    }
}

// The `sample` key appears only when sampling is on, so unsampled results
// files keep their exact pre-sampling bytes.
json_struct!(MatrixSpec {
    workloads,
    schemes,
    variants,
    budget,
    ?sample,
});

/// One finished job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    pub spec: JobSpec,
    pub suite: String,
    pub seed: u64,
    pub outcome: SchemeOutcome,
}

impl JobResult {
    /// Files `outcome` under its job, with the workload's suite and the
    /// job's seed.
    pub fn new(spec: JobSpec, outcome: SchemeOutcome) -> JobResult {
        JobResult {
            suite: lvp_workloads::by_name(&spec.workload)
                .map(|w| w.suite.to_string())
                .unwrap_or_default(),
            seed: spec.seed(),
            spec,
            outcome,
        }
    }
}

impl ToJson for JobResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", self.spec.workload.to_json()),
            ("suite", self.suite.to_json()),
            ("scheme", self.spec.scheme.to_json()),
            ("variant", self.spec.variant.to_json()),
            ("budget", self.spec.budget.to_json()),
            ("seed", self.seed.to_json()),
            ("outcome", self.outcome.to_json()),
        ])
    }
}

/// All results of one matrix run, in canonical job order.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixResults {
    pub spec: MatrixSpec,
    pub jobs: Vec<JobResult>,
}

impl MatrixResults {
    /// The serialized document: `{"spec": ..., "jobs": [...]}`. Contains no
    /// timestamps, host names, or thread counts — re-running the same spec
    /// anywhere yields byte-identical output.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("spec", self.spec.to_json()),
            (
                "jobs",
                Json::Array(self.jobs.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }

    /// Finds one job's outcome.
    pub fn outcome(
        &self,
        workload: &str,
        scheme: SchemeKind,
        variant: ConfigVariant,
    ) -> Option<&SchemeOutcome> {
        self.jobs
            .iter()
            .find(|j| {
                j.spec.workload == workload && j.spec.scheme == scheme && j.spec.variant == variant
            })
            .map(|j| &j.outcome)
    }
}

/// Default worker count: `LVP_JOBS` env var if set, else available
/// parallelism, else 1.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("LVP_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on a scoped worker pool and returns results in
/// **input order** — bit-identical for any `workers >= 1`, provided `f` is
/// pure. Items are consumed via an atomic cursor; each result lands in its
/// own index slot, so neither the thread count nor the completion schedule
/// can reorder output. This is the worker pool under both [`run_matrix`]
/// and the declarative figure pipeline.
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_metered(
        items,
        workers,
        &NullPhases,
        &Progress::off(),
        |_| String::new(),
        |_| (0, 0),
        f,
    )
}

/// [`par_map`] with host telemetry: each item runs inside a phase span on
/// its worker's lane (worker `i` = lane `i + 1`), charged with the
/// simulated work the `meter` closure extracts from its result, and ticks
/// the [`Progress`] meter. With [`NullPhases`] the span and `label` calls
/// compile out entirely and this **is** `par_map` — same pool, same
/// input-order slots, bit-identical results for any worker count.
pub fn par_map_metered<T, R, F, L, M, P>(
    items: &[T],
    workers: usize,
    phases: &P,
    progress: &Progress,
    label: L,
    meter: M,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    L: Fn(&T) -> String + Sync,
    M: Fn(&R) -> (u64, u64) + Sync,
    P: PhaseSink,
{
    let workers = workers.max(1).min(items.len().max(1));
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let lane = (w + 1) as u32;
            let (slots, cursor) = (&slots, &cursor);
            let (f, label, meter) = (&f, &label, &meter);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let mut guard = if P::ENABLED {
                    Some(phases.span(lane, &label(item)))
                } else {
                    None
                };
                let r = f(item);
                let (sim_cycles, instructions) = meter(&r);
                if let Some(g) = guard.as_mut() {
                    g.charge(sim_cycles, instructions, 1);
                    g.finish();
                }
                progress.tick(sim_cycles);
                *slots[i].lock().expect("result slot lock poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot lock poisoned")
                .expect("every item processed")
        })
        .collect()
}

/// Executes the matrix on `workers` scoped threads and returns results in
/// canonical job order, bit-identical for any `workers >= 1`.
///
/// Traces are built once per (workload, budget) up front — shared read-only
/// across jobs — then the job list is consumed via an atomic cursor.
pub fn run_matrix(spec: &MatrixSpec, workers: usize) -> MatrixResults {
    run_matrix_with(spec, workers, &NullPhases, &Progress::off())
}

/// [`run_matrix`] with host telemetry: trace construction runs under a
/// lane-0 `build_traces` span (per-workload `trace:<name>` spans on the
/// worker lanes), simulation under a `simulate` span with one
/// `job:<workload>/<variant>/<scheme>` span per job, charged with that
/// job's simulated cycles and instructions. The returned results — and
/// their serialized bytes — are identical to [`run_matrix`]'s: telemetry
/// observes the run, it never feeds back into it.
pub fn run_matrix_with<P: PhaseSink>(
    spec: &MatrixSpec,
    workers: usize,
    phases: &P,
    progress: &Progress,
) -> MatrixResults {
    run_matrix_serviced(spec, workers, phases, progress, &SimService::disabled())
}

/// [`run_matrix_with`] behind a result store: each job is looked up by the
/// canonical hash of its request document (trace fingerprint + budget +
/// scheme + fully-resolved config, the same key space `figs` uses), only
/// misses execute on the pool, and computed outcomes are recorded. Results
/// and serialized bytes are identical cold, warm, or disabled.
pub fn run_matrix_serviced<P: PhaseSink>(
    spec: &MatrixSpec,
    workers: usize,
    phases: &P,
    progress: &Progress,
    service: &SimService,
) -> MatrixResults {
    let jobs = spec.expand();
    let outcomes = simulate_cached(
        service,
        &jobs,
        JobSpec::point,
        &[],
        workers,
        phases,
        progress,
        |job| {
            format!(
                "job:{}/{}/{}",
                job.workload,
                job.variant.name(),
                job.scheme.name()
            )
        },
    )
    .outcomes
    .results;
    MatrixResults {
        spec: spec.clone(),
        jobs: jobs
            .into_iter()
            .zip(outcomes)
            .map(|(job, outcome)| JobResult::new(job, outcome))
            .collect(),
    }
}

/// Tolerances for golden comparison. A counter drifts when
/// `|cur - gold| > abs + rel * |gold|`. Defaults are zero: the simulation
/// is deterministic, so goldens should match exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    pub rel: f64,
    pub abs: f64,
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances { rel: 0.0, abs: 0.0 }
    }
}

/// One counter (or structural) difference between a run and its golden.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Dotted path of the counter, e.g. `jobs.3.outcome.stats.cycles`.
    pub path: String,
    pub golden: Option<f64>,
    pub current: Option<f64>,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.golden, self.current) {
            (Some(g), Some(c)) => {
                write!(
                    f,
                    "{}: golden {} -> current {} (delta {:+})",
                    self.path,
                    g,
                    c,
                    c - g
                )
            }
            (Some(g), None) => write!(f, "{}: missing in current run (golden {})", self.path, g),
            (None, Some(c)) => write!(f, "{}: not in golden (current {})", self.path, c),
            (None, None) => write!(f, "{}: structural mismatch", self.path),
        }
    }
}

/// Diffs every numeric leaf of `current` against `golden` under `tol`.
/// Non-numeric leaves (scheme names, variant names) are compared exactly via
/// their serialized form and reported as structural drift when they differ.
pub fn diff_matrices(golden: &Json, current: &Json, tol: Tolerances) -> Vec<Drift> {
    let mut drifts = Vec::new();
    let g: std::collections::BTreeMap<String, f64> = golden.flatten_numbers().into_iter().collect();
    let c: std::collections::BTreeMap<String, f64> =
        current.flatten_numbers().into_iter().collect();
    for (path, &gv) in &g {
        match c.get(path) {
            None => drifts.push(Drift {
                path: path.clone(),
                golden: Some(gv),
                current: None,
            }),
            Some(&cv) => {
                if (cv - gv).abs() > tol.abs + tol.rel * gv.abs() {
                    drifts.push(Drift {
                        path: path.clone(),
                        golden: Some(gv),
                        current: Some(cv),
                    });
                }
            }
        }
    }
    for (path, &cv) in &c {
        if !g.contains_key(path) {
            drifts.push(Drift {
                path: path.clone(),
                golden: None,
                current: Some(cv),
            });
        }
    }
    // Non-numeric structure: compare the skeletons with numbers erased.
    let (gs, cs) = (erase_numbers(golden), erase_numbers(current));
    if gs != cs {
        drifts.push(Drift {
            path: "<structure>".to_string(),
            golden: None,
            current: None,
        });
    }
    drifts
}

fn erase_numbers(v: &Json) -> Json {
    match v {
        Json::U64(_) | Json::I64(_) | Json::F64(_) => Json::Null,
        Json::Array(items) => Json::Array(items.iter().map(erase_numbers).collect()),
        Json::Object(pairs) => Json::Object(
            pairs
                .iter()
                .map(|(k, x)| (k.clone(), erase_numbers(x)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Compares a results file against a golden snapshot on disk. Returns the
/// drift list (empty = pass).
pub fn check_against_golden(
    results: &MatrixResults,
    golden_path: &std::path::Path,
    tol: Tolerances,
) -> Result<Vec<Drift>, String> {
    let text = std::fs::read_to_string(golden_path)
        .map_err(|e| format!("cannot read golden {}: {e}", golden_path.display()))?;
    let golden = Json::parse(&text)
        .map_err(|e| format!("golden {} is not valid JSON: {e}", golden_path.display()))?;
    Ok(diff_matrices(&golden, &results.to_json(), tol))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> MatrixSpec {
        MatrixSpec {
            workloads: vec!["aifirf".to_string(), "nat".to_string()],
            schemes: vec![SchemeKind::Baseline, SchemeKind::Dlvp],
            variants: vec![ConfigVariant::Default],
            budget: 5_000,
            sample: None,
        }
    }

    #[test]
    fn expansion_is_canonical_order() {
        let jobs = tiny_spec().expand();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].workload, "aifirf");
        assert_eq!(jobs[0].scheme, SchemeKind::Baseline);
        assert_eq!(jobs[1].scheme, SchemeKind::Dlvp);
        assert_eq!(jobs[2].workload, "nat");
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let jobs = tiny_spec().expand();
        let seeds: Vec<u64> = jobs.iter().map(JobSpec::seed).collect();
        let again: Vec<u64> = tiny_spec().expand().iter().map(JobSpec::seed).collect();
        assert_eq!(seeds, again);
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "job seeds must be distinct");
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let spec = tiny_spec();
        let serial = run_matrix(&spec, 1);
        let parallel = run_matrix(&spec, 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_json().pretty(), parallel.to_json().pretty());
    }

    #[test]
    fn diff_flags_counter_drift_and_structure() {
        let spec = MatrixSpec {
            workloads: vec!["aifirf".to_string()],
            schemes: vec![SchemeKind::Baseline],
            variants: vec![ConfigVariant::Default],
            budget: 3_000,
            sample: None,
        };
        let results = run_matrix(&spec, 2);
        let golden = results.to_json();
        assert!(diff_matrices(&golden, &results.to_json(), Tolerances::default()).is_empty());

        // Inject drift into one counter.
        let mut tampered = results.clone();
        tampered.jobs[0].outcome.cycles += 100;
        let drifts = diff_matrices(&golden, &tampered.to_json(), Tolerances::default());
        assert!(
            drifts.iter().any(|d| d.path.ends_with("cycles")),
            "drifts: {drifts:?}"
        );
        // A generous tolerance absorbs it.
        let ok = diff_matrices(
            &golden,
            &tampered.to_json(),
            Tolerances { rel: 0.5, abs: 0.0 },
        );
        assert!(
            ok.is_empty(),
            "unexpected drifts under 50% tolerance: {ok:?}"
        );

        // Structural change: scheme renamed.
        let mut structural = golden.clone();
        if let Json::Object(ref mut top) = structural {
            let jobs = top.iter_mut().find(|(k, _)| k == "jobs").unwrap();
            if let Json::Array(ref mut arr) = jobs.1 {
                if let Json::Object(ref mut job) = arr[0] {
                    for (k, v) in job.iter_mut() {
                        if k == "scheme" {
                            *v = Json::Str("RENAMED".to_string());
                        }
                    }
                }
            }
        }
        let drifts = diff_matrices(&structural, &results.to_json(), Tolerances::default());
        assert!(drifts.iter().any(|d| d.path == "<structure>"));
    }

    #[test]
    fn sampled_matrix_is_jobs_invariant_and_spec_key_is_conditional() {
        let mut spec = tiny_spec();
        assert!(
            !spec.to_json().pretty().contains("\"sample\""),
            "unsampled specs must not grow a sample key"
        );
        spec.budget = 20_000;
        spec.sample = Some(SampleSpec {
            ff: 4_000,
            warmup: 1_000,
            detail: 2_000,
            period: 6_000,
        });
        let serial = run_matrix(&spec, 1);
        let parallel = run_matrix(&spec, 4);
        assert_eq!(serial, parallel, "sampling must stay --jobs invariant");
        assert_eq!(serial.to_json().pretty(), parallel.to_json().pretty());
        assert!(serial.to_json().pretty().contains("\"sample\""));
        for j in &serial.jobs {
            assert!(j.outcome.stats.sampling.is_some());
            assert!(j.outcome.stats.instructions < spec.budget);
        }
    }

    #[test]
    fn variant_configs_differ_from_default() {
        for v in ConfigVariant::all() {
            assert_eq!(ConfigVariant::from_name(v.name()), Some(v));
            assert!(
                SimConfig::preset_names().contains(&v.name()),
                "{} must name a preset",
                v.name()
            );
            if v != ConfigVariant::Default {
                assert_ne!(
                    v.config(),
                    SimConfig::default(),
                    "{} must change config",
                    v.name()
                );
            }
        }
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map(&items, 1, |&x| x * x);
        let parallel = par_map(&items, 8, |&x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(serial, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        assert!(par_map(&[] as &[u64], 4, |&x| x).is_empty());
    }

    #[test]
    fn full_matrix_covers_registry() {
        let spec = MatrixSpec::full(1_000);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.workloads.len(), lvp_workloads::names().len());
        assert_eq!(spec.expand().len(), spec.workloads.len() * 5);
    }
}
