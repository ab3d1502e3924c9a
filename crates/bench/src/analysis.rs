//! The `analyze` pipeline: static analysis of every workload program,
//! cross-validated against a dynamic DLVP simulation of the same workload.
//!
//! This is the library backing the `analyze` CLI (and the integration
//! tests): [`analyze_workload`] runs `lvp-analysis` over the workload's
//! program — the path-insensitive pass *and* the path-sensitive dependence
//! pass ([`lvp_analysis::DepAnalysis`]: path contexts, store→load conflict
//! graph, static predictability bounds) — simulates the trace under DLVP,
//! merges the simulator's and the engine's per-PC counters into
//! [`lvp_analysis::XvalLoad`]s ([`DlvpSimSlice::xval_loads`]), and runs
//! both gate rule sets:
//! [`lvp_analysis::cross_validate`] (R1–R4) and
//! [`lvp_analysis::cross_validate_dep`] (R5–R7). Path-hash collisions (the
//! warn-level R8 audit) are counted in the report but never fail the gate.
//! [`report_json`] renders the whole batch as one deterministic JSON
//! document; [`depgraph_json`] renders the purely static dependence graphs
//! (byte-diffed in CI — they depend only on the programs, not the budget).

use dlvp::{DlvpConfig, DlvpSimSlice, PapConfig};
use lvp_analysis::{
    cross_validate, cross_validate_dep, DepAnalysis, DepInputs, ProgramAnalysis, Violation,
    XvalConfig, XvalLoad,
};
use lvp_json::{FromJson, Json, ToJson};
use lvp_store::SimService;
use lvp_trace::Trace;
use lvp_uarch::CoreConfig;
use lvp_workloads::Workload;
use std::collections::BTreeMap;

/// One workload's static analysis, merged dynamic counters and gate
/// verdicts.
pub struct WorkloadAnalysis {
    /// Workload name.
    pub name: &'static str,
    /// The static analysis of the workload's program.
    pub analysis: ProgramAnalysis,
    /// The path-sensitive dependence analysis (contexts, conflict graph,
    /// bounds, R8 collision audit).
    pub dep: DepAnalysis,
    /// Per load: static verdicts + merged dynamic counters, address order.
    pub loads: Vec<XvalLoad>,
    /// Per must-edge `(load_pc, store_pc)`: load executions after the
    /// store's first execution (R5's exercise metric).
    pub must_exercised: BTreeMap<(u64, u64), u64>,
    /// Cross-validation violations, R1–R4 then R5–R7 (empty = gate passed).
    pub violations: Vec<Violation>,
    /// Cycles the validating DLVP simulation ran for (host-telemetry
    /// accounting only — never serialized into the report).
    pub sim_cycles: u64,
    /// Instructions the validating simulation committed (telemetry only).
    pub sim_instructions: u64,
}

/// Counts, for every must-conflict edge, how many times the load committed
/// *after* the store's first dynamic execution — the R5 exercise metric.
/// The simulator's conflict-granule map is persistent, so any such load
/// execution is guaranteed to observe the exposure.
fn must_exercised(trace: &Trace, dep: &DepAnalysis) -> BTreeMap<(u64, u64), u64> {
    let mut store_first: BTreeMap<u64, usize> = BTreeMap::new();
    let mut load_indices: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, r) in trace.records().iter().enumerate() {
        if r.inst.is_store() {
            store_first.entry(r.pc).or_insert(i);
        } else if r.inst.is_load() {
            load_indices.entry(r.pc).or_default().push(i);
        }
    }
    dep.graph
        .must_edges()
        .map(|e| {
            let n = store_first
                .get(&e.store_pc)
                .map(|&first| {
                    load_indices
                        .get(&e.load_pc)
                        .map_or(0, |v| v.iter().filter(|&&i| i > first).count() as u64)
                })
                .unwrap_or(0);
            ((e.load_pc, e.store_pc), n)
        })
        .collect()
}

/// Analyzes one workload and cross-validates against a DLVP simulation of
/// `budget` dynamic instructions. `pap` and `dlvp` configure the engine
/// under test — pass `PapConfig { train_reset_on_mismatch: false, .. }` or
/// `DlvpConfig { inject_lscd_bug: true, .. }` to inject the bugs the gate
/// is designed to catch.
pub fn analyze_workload(
    workload: &Workload,
    budget: u64,
    pap: PapConfig,
    dlvp: DlvpConfig,
    xval: &XvalConfig,
) -> WorkloadAnalysis {
    analyze_workload_serviced(
        workload,
        budget,
        pap,
        dlvp,
        xval,
        &SimService::disabled(),
        &lvp_obs::NullPhases,
    )
    .0
}

/// [`analyze_workload`] behind a [`SimService`]: the validating DLVP
/// simulation (the expensive part) is looked up in — and recorded to —
/// the result store; the static passes and gate rules always run. Returns
/// the analysis and whether the simulation was a cache hit. The analysis
/// is identical either way because the cached payload round-trips every
/// counter the gate reads.
///
/// A `job:<workload>/analyze/dlvp` span is opened on `phases` only when
/// the simulation actually runs, so a warm run's manifest reports zero
/// jobs — exactly like the `figs`/`runner` pools.
#[allow(clippy::too_many_arguments)]
pub fn analyze_workload_serviced<P: lvp_obs::PhaseSink>(
    workload: &Workload,
    budget: u64,
    pap: PapConfig,
    dlvp: DlvpConfig,
    xval: &XvalConfig,
    service: &SimService,
    phases: &P,
) -> (WorkloadAnalysis, bool) {
    let program = workload.program();
    let analysis = ProgramAnalysis::analyze(&program);
    let dep = DepAnalysis::analyze(&program, &analysis);
    let trace = workload.trace(budget);

    let (sim, hit) = service.cached(
        || {
            DlvpSimSlice::request_doc(
                trace.fingerprint(),
                budget,
                &CoreConfig::default(),
                &dlvp,
                &pap,
            )
        },
        |j| DlvpSimSlice::from_json(j).ok(),
        DlvpSimSlice::to_json,
        || {
            let mut job = if P::ENABLED {
                Some(phases.span(0, &format!("job:{}/analyze/dlvp", workload.name)))
            } else {
                None
            };
            let sim = DlvpSimSlice::run(&trace, CoreConfig::default(), dlvp, pap);
            if let Some(j) = job.as_mut() {
                j.charge(sim.cycles, sim.instructions, 1);
                j.finish();
            }
            sim
        },
    );

    let loads = sim.xval_loads(&analysis);
    let exercised = must_exercised(&trace, &dep);
    let mut violations = cross_validate(&loads, xval);
    violations.extend(cross_validate_dep(
        &loads,
        &DepInputs {
            graph: &dep.graph,
            bounds: &dep.bounds,
            must_exercised: &exercised,
        },
        xval,
    ));
    (
        WorkloadAnalysis {
            name: workload.name,
            analysis,
            dep,
            loads,
            must_exercised: exercised,
            violations,
            sim_cycles: sim.cycles,
            sim_instructions: sim.instructions,
        },
        hit,
    )
}

/// Analyzes a batch of workloads (see [`analyze_workload`]).
pub fn analyze_workloads(
    workloads: &[Workload],
    budget: u64,
    pap: PapConfig,
    dlvp: DlvpConfig,
    xval: &XvalConfig,
) -> Vec<WorkloadAnalysis> {
    analyze_workloads_serviced(
        workloads,
        budget,
        pap,
        dlvp,
        xval,
        &lvp_obs::NullPhases,
        &crate::telemetry::Progress::off(),
        &SimService::disabled(),
    )
}

/// [`analyze_workloads`] with host telemetry, behind a [`SimService`]: the
/// batch runs under a lane-0 `analyze` span with one
/// `job:<workload>/analyze/dlvp` span per executed simulation, charged with
/// its cycles and instructions. Workloads whose validating simulation hits
/// the store get no `job:` span and charge no work, so a fully warm run's
/// manifest reports zero jobs — exactly like the `figs`/`runner` pools. The
/// batch stays serial and in input order; reports are byte-identical to
/// [`analyze_workloads`]'s.
#[allow(clippy::too_many_arguments)]
pub fn analyze_workloads_serviced<P: lvp_obs::PhaseSink>(
    workloads: &[Workload],
    budget: u64,
    pap: PapConfig,
    dlvp: DlvpConfig,
    xval: &XvalConfig,
    phases: &P,
    progress: &crate::telemetry::Progress,
    service: &SimService,
) -> Vec<WorkloadAnalysis> {
    let mut span = phases.span(0, "analyze");
    let mut executed = (0u64, 0u64, 0u64);
    let results: Vec<WorkloadAnalysis> = workloads
        .iter()
        .map(|w| {
            let (r, hit) = analyze_workload_serviced(w, budget, pap, dlvp, xval, service, phases);
            if !hit {
                executed.0 += r.sim_cycles;
                executed.1 += r.sim_instructions;
                executed.2 += 1;
            }
            progress.tick(r.sim_cycles);
            r
        })
        .collect();
    span.charge(executed.0, executed.1, executed.2);
    span.finish();
    results
}

/// Total violations across a batch.
pub fn total_violations(results: &[WorkloadAnalysis]) -> usize {
    results.iter().map(|r| r.violations.len()).sum()
}

/// Total warn-level path-hash collisions (R8 audit) across a batch.
pub fn total_collisions(results: &[WorkloadAnalysis]) -> usize {
    results.iter().map(|r| r.dep.collisions.len()).sum()
}

fn dyn_load_to_json(l: &XvalLoad, r: &WorkloadAnalysis) -> Json {
    let s = l.stats;
    let bound = r.dep.bounds.iter().find(|b| b.pc == l.pc);
    Json::obj([
        ("pc", l.pc.to_json()),
        ("class", l.class.name().to_json()),
        ("conflict_free", l.conflict_free.to_json()),
        ("ordered", l.ordered.to_json()),
        (
            "coverage_bound",
            bound.map_or(1.0, |b| b.coverage_bound).to_json(),
        ),
        (
            "must_conflict",
            bound.is_some_and(|b| b.must_conflict).to_json(),
        ),
        ("executions", s.executions.to_json()),
        ("conflict_exposed", s.conflict_exposed.to_json()),
        ("ordering_violations", s.ordering_violations.to_json()),
        ("injected", s.injected.to_json()),
        ("value_correct", s.value_correct.to_json()),
        ("attempts", s.attempts.to_json()),
        ("predictions", s.predictions.to_json()),
        ("addr_mispredicts", s.addr_mispredicts.to_json()),
        ("stale_mispredicts", s.stale_mispredicts.to_json()),
        ("lscd_suppressed", s.lscd_suppressed.to_json()),
    ])
}

fn violation_to_json(v: &Violation) -> Json {
    Json::obj([
        ("pc", v.pc.to_json()),
        ("rule", v.rule.to_json()),
        ("detail", v.detail.to_json()),
    ])
}

/// The full deterministic report for one batch.
pub fn report_json(results: &[WorkloadAnalysis], budget: u64) -> Json {
    Json::obj([
        ("schema_version", 2u64.to_json()),
        ("budget", budget.to_json()),
        (
            "total_violations",
            (total_violations(results) as u64).to_json(),
        ),
        (
            "total_hash_collisions",
            (total_collisions(results) as u64).to_json(),
        ),
        (
            "workloads",
            Json::Array(
                results
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", r.name.to_json()),
                            ("static", r.analysis.to_json()),
                            (
                                "dep",
                                Json::obj([
                                    (
                                        "must_edges",
                                        (r.dep.graph.must_edges().count() as u64).to_json(),
                                    ),
                                    (
                                        "may_edges",
                                        ((r.dep.graph.edges.len()
                                            - r.dep.graph.must_edges().count())
                                            as u64)
                                            .to_json(),
                                    ),
                                    ("hash_collisions", (r.dep.collisions.len() as u64).to_json()),
                                    (
                                        "must_exercised",
                                        Json::Array(
                                            r.must_exercised
                                                .iter()
                                                .map(|(&(l, s), &n)| {
                                                    Json::obj([
                                                        ("load_pc", l.to_json()),
                                                        ("store_pc", s.to_json()),
                                                        ("executions_after", n.to_json()),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                ]),
                            ),
                            (
                                "loads",
                                Json::Array(
                                    r.loads.iter().map(|l| dyn_load_to_json(l, r)).collect(),
                                ),
                            ),
                            (
                                "violations",
                                Json::Array(r.violations.iter().map(violation_to_json).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The purely static dependence-graph document for a batch: one
/// [`DepAnalysis::to_json`] per workload. Depends only on the programs —
/// deterministic across budgets, bug injections, and re-runs, so CI
/// byte-diffs it against the committed artifact.
pub fn depgraph_json(results: &[WorkloadAnalysis]) -> Json {
    Json::obj([
        ("schema_version", 1u64.to_json()),
        (
            "workloads",
            Json::Array(
                results
                    .iter()
                    .map(|r| Json::obj([("name", r.name.to_json()), ("depgraph", r.dep.to_json())]))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fir_kernel_passes_the_gate_and_reports() {
        let w = lvp_workloads::by_name("aifirf").expect("workload");
        let r = analyze_workload(
            &w,
            30_000,
            PapConfig::default(),
            DlvpConfig::default(),
            &XvalConfig::default(),
        );
        assert!(
            r.violations.is_empty(),
            "gate must pass on the correct simulator: {:?}",
            r.violations
        );
        assert!(!r.loads.is_empty());
        // The report must parse back and stay deterministic.
        let text = report_json(&[r], 30_000).pretty();
        let again = analyze_workload(
            &w,
            30_000,
            PapConfig::default(),
            DlvpConfig::default(),
            &XvalConfig::default(),
        );
        assert_eq!(text, report_json(&[again], 30_000).pretty());
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn depgraph_is_deterministic_and_independent_of_budget() {
        let w = lvp_workloads::by_name("libquantum").expect("workload");
        let a = analyze_workload(
            &w,
            10_000,
            PapConfig::default(),
            DlvpConfig::default(),
            &XvalConfig::default(),
        );
        let b = analyze_workload(
            &w,
            20_000,
            PapConfig::default(),
            DlvpConfig::default(),
            &XvalConfig::default(),
        );
        let ja = depgraph_json(&[a]).pretty();
        let jb = depgraph_json(&[b]).pretty();
        assert_eq!(ja, jb, "depgraph must not depend on the dynamic budget");
        assert!(Json::parse(&ja).is_ok());
    }

    #[test]
    fn must_edges_are_exercised_on_rmw_workloads() {
        // aifirf's accumulator cells are read and re-written at constant
        // addresses every outer iteration: the dependence pass must find
        // the must-conflict edges and the trace must exercise them.
        let w = lvp_workloads::by_name("aifirf").expect("workload");
        let r = analyze_workload(
            &w,
            30_000,
            PapConfig::default(),
            DlvpConfig::default(),
            &XvalConfig::default(),
        );
        assert!(
            r.dep.graph.must_edges().count() > 0,
            "expected a must-conflict edge"
        );
        assert!(
            r.must_exercised.values().any(|&n| n > 0),
            "the trace must exercise a must edge: {:?}",
            r.must_exercised
        );
        assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
    }
}
