//! The differential oracle: soundness checks against the static analyzer
//! and cross-scheme invariant checks against the simulator stack.
//!
//! A synthesized program passes the oracle when
//!
//! 1. **soundness** — the analyzer's verdicts match the synthesizer's
//!    declared intent: per-site load class, conflict-free expectations,
//!    no unanalyzable loads beyond the declared ones, and the achieved
//!    class mix within the profile's tolerance of the declared mix;
//! 2. **trace-identity** — for every [`SchemeKind`], a `NullSink` run and a
//!    `RingSink`-traced run of the same trace produce byte-identical
//!    statistics and scheme counters (observation must not perturb);
//! 3. **obs-reconcile** — the lvp-obs lifecycle report rebuilt from the
//!    traced events reconciles 1:1 with `SimStats::per_pc`;
//! 4. **stats-sanity** — per-run and per-PC counter algebra holds
//!    (`correct <= injected <= executions`, squashes bounded by
//!    mispredictions, per-PC injections summing to the run total);
//! 5. **squash-alias** — conflict squashes and conflict exposure only
//!    occur on loads the alias pass could not prove conflict-free;
//! 6. **xval** — the cross-validation gate over a DLVP run: the PR 2 rules
//!    (R1-R4) plus the dependence rules R5-R7 driven by the path-sensitive
//!    [`lvp_analysis::DepAnalysis`] (must-conflict exposure, coverage
//!    bounds, LSCD-suppression subset) — between them these catch both the
//!    injected training bug and the injected LSCD bug;
//! 7. **const-value-accuracy** — a conflict-free constant-address load
//!    reads a cell only the data-segment initializer ever wrote, so once
//!    the DLVP predictor commits to it, its *value* accuracy must be high.
//!    The check is pruned by the static verdicts: loads whose coverage
//!    bound caps injection are skipped, since they cannot accumulate a
//!    meaningful injection sample;
//! 8. **tier-equivalence** — the run paths agree on the program's
//!    architecture: a streaming [`Emulator::step_record`] replay yields
//!    record-for-record the same trace as the batch run, and every scheme's
//!    core counts exactly the trace's own instructions, loads, stores and
//!    branches.

use crate::synth::SynthProgram;
use dlvp::{DlvpSimSlice, SchemeKind};
use lvp_analysis::{
    cross_validate, cross_validate_dep, DepAnalysis, DepInputs, ProgramAnalysis, XvalConfig,
};
use lvp_emu::{Emulator, RunOutcome, StopReason};
use lvp_json::{json_struct, FromJson, ToJson};
use lvp_obs::{LifecycleReport, RingSink, RunMeta};
use lvp_store::SimService;
use lvp_uarch::{Core, SimConfig, SimStats};
use std::collections::BTreeMap;

/// Configuration for one oracle evaluation.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Simulator configuration every scheme runs under. Inject a predictor
    /// bug here (e.g. `pap.train_reset_on_mismatch = false`) to test that
    /// the oracle catches it.
    pub sim: SimConfig,
    /// Thresholds for the cross-validation gate.
    pub xval: XvalConfig,
    /// Minimum injections before the constant-load value-accuracy bound
    /// applies, and the bound itself.
    pub min_injected_const: u64,
    pub const_min_value_accuracy: f64,
    /// Minimum number of distinct conflict-free constant loads before the
    /// aggregate saturation rule (xval R4) applies. The APT is direct-
    /// mapped, so a *single* constant load can legitimately starve when it
    /// aliases with a varying-address load (Policy-2 keeps decrementing its
    /// confidence); with two or more, simultaneous starvation of all of
    /// them is no longer explainable by aliasing.
    pub min_const_sites_for_saturation: usize,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            sim: SimConfig::default(),
            xval: XvalConfig::default(),
            min_injected_const: 64,
            const_min_value_accuracy: 0.85,
            min_const_sites_for_saturation: 2,
        }
    }
}

/// One violated invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Scheme label the finding was observed under (`-` for scheme-free
    /// checks such as soundness).
    pub scheme: String,
    /// Stable invariant name.
    pub invariant: String,
    /// Deterministic human-readable detail.
    pub detail: String,
}

impl Finding {
    fn new(scheme: &str, invariant: &str, detail: String) -> Finding {
        Finding {
            scheme: scheme.to_string(),
            invariant: invariant.to_string(),
            detail,
        }
    }
}

json_struct!(Finding {
    scheme,
    invariant,
    detail,
});

/// Runs the synthesized program on the functional emulator.
pub fn execute(sp: &SynthProgram) -> RunOutcome {
    Emulator::new(sp.program.clone()).run(sp.budget)
}

/// Checks the analyzer's verdicts against the synthesizer's declared
/// intent. Returns human-readable defect descriptions (empty = sound).
pub fn soundness(sp: &SynthProgram, analysis: &ProgramAnalysis, tolerance: f64) -> Vec<String> {
    let mut out = Vec::new();
    for site in &sp.sites {
        let Some(load) = analysis.loads.iter().find(|l| l.pc == site.load_pc) else {
            out.push(format!(
                "site {}: analyzer found no load at pc {:#x}",
                site.index, site.load_pc
            ));
            continue;
        };
        if load.class.name() != site.kind.name() {
            out.push(format!(
                "site {}: declared {} but analyzer classified {:#x} as {}",
                site.index,
                site.kind.name(),
                site.load_pc,
                load.class.name()
            ));
        }
        if let Some(expect) = site.expect_conflict_free {
            if load.conflict_free() != expect {
                out.push(format!(
                    "site {}: expected conflict_free={} for {:#x} ({} store) but alias pass says {}",
                    site.index,
                    expect,
                    site.load_pc,
                    site.store.name(),
                    load.conflict_free()
                ));
            }
        }
        if let Some(hpc) = site.helper_pc {
            match analysis.loads.iter().find(|l| l.pc == hpc) {
                Some(h) if h.class.name() == "constant" => {}
                Some(h) => out.push(format!(
                    "site {}: pointer helper at {:#x} classified {} instead of constant",
                    site.index,
                    hpc,
                    h.class.name()
                )),
                None => out.push(format!(
                    "site {}: analyzer found no helper load at pc {:#x}",
                    site.index, hpc
                )),
            }
        }
    }
    let achieved = analysis.class_counts();
    let declared = sp.declared_counts();
    if achieved[3] != declared[3] {
        out.push(format!(
            "unanalyzable loads: declared {} but analyzer found {}",
            declared[3], achieved[3]
        ));
    }
    let total: usize = achieved.iter().sum();
    let declared_total: usize = declared.iter().sum();
    if total != declared_total {
        out.push(format!(
            "load count: declared {declared_total} but analyzer found {total}"
        ));
    } else if total > 0 {
        for (slot, name) in ["constant", "strided", "path_dependent", "unanalyzable"]
            .iter()
            .enumerate()
        {
            let d = declared[slot] as f64 / total as f64;
            let a = achieved[slot] as f64 / total as f64;
            if (d - a).abs() > tolerance {
                out.push(format!(
                    "{name} mix drifted: declared fraction {d:.3}, achieved {a:.3}, tolerance {tolerance:.3}"
                ));
            }
        }
    }
    out
}

/// Runs the full differential oracle over one synthesized program, behind a
/// [`SimService`] (pass `SimService::disabled()` to always simulate): the
/// DLVP deep-check simulation (steps 7-8) is looked up in — and recorded
/// to — the service, keyed by the trace fingerprint and the full simulator
/// configuration. The
/// campaign and minimizer drivers share one in-memory service so repeated
/// candidates (minimizer fixpoint rounds, duplicate seeds) simulate once;
/// the findings are identical either way because the cached payload
/// round-trips every counter the gate reads.
pub fn check_serviced(
    sp: &SynthProgram,
    run: &RunOutcome,
    cfg: &OracleConfig,
    service: &SimService,
) -> Vec<Finding> {
    let mut out = Vec::new();
    if !matches!(run.stop, StopReason::Halted) {
        out.push(Finding::new(
            "-",
            "termination",
            format!(
                "program did not halt within budget {}: {:?}",
                sp.budget, run.stop
            ),
        ));
        return out;
    }
    let trace = &run.trace;
    let analysis = ProgramAnalysis::analyze(&sp.program);
    let conflict_free: Vec<(u64, bool)> = analysis
        .loads
        .iter()
        .map(|l| (l.pc, l.conflict_free()))
        .collect();

    let trace_counts = (
        trace.len() as u64,
        trace.load_count() as u64,
        trace.store_count() as u64,
        trace.branch_count() as u64,
    );
    for kind in SchemeKind::all() {
        let core = Core::new(cfg.sim.core.clone(), kind.build(&cfg.sim));
        let (stats, scheme) = core.run_with_scheme(trace);
        let traced_core = Core::with_sink(
            cfg.sim.core.clone(),
            kind.build(&cfg.sim),
            RingSink::new(trace.len().saturating_mul(8).max(1)),
        );
        let (tstats, tscheme, sink) = traced_core.run_traced(trace);

        // 2. NullSink vs traced byte-identity.
        if stats != tstats
            || scheme.extra_counters() != tscheme.extra_counters()
            || scheme.activity() != tscheme.activity()
            || scheme.storage_bits() != tscheme.storage_bits()
        {
            out.push(Finding::new(
                kind.label(),
                "trace-identity",
                format!(
                    "traced run diverged from NullSink run: {} vs {}",
                    tstats.to_json().compact(),
                    stats.to_json().compact()
                ),
            ));
        }

        // 3. Lifecycle report reconciles 1:1 with SimStats::per_pc.
        let ring = sink.into_ring();
        let overwritten = ring.overwritten();
        if overwritten == 0 {
            let report = LifecycleReport::build(
                RunMeta {
                    workload: "fuzz".into(),
                    scheme: kind.label().into(),
                    budget: sp.budget,
                },
                &ring.drain(),
                0,
            );
            if let Err(msg) = report.reconcile_injections(
                stats
                    .per_pc
                    .iter()
                    .map(|(&pc, s)| (pc, (s.injected, s.correct, s.conflict_squashes))),
            ) {
                out.push(Finding::new(kind.label(), "obs-reconcile", msg));
            }
        }

        // 8. Architectural counters equal the trace's own counts (so they
        // also agree across schemes).
        out.extend(arch_counts_match(kind.label(), &stats, trace_counts));

        // 4. Counter algebra.
        sanity(&mut out, kind.label(), &stats);
        if kind == SchemeKind::Baseline && stats.vp_predicted != 0 {
            out.push(Finding::new(
                kind.label(),
                "stats-sanity",
                format!("baseline issued {} predictions", stats.vp_predicted),
            ));
        }

        // 5. Squashes only where the alias pass allows them.
        for &(pc, free) in &conflict_free {
            if !free {
                continue;
            }
            if let Some(s) = stats.per_pc.get(&pc) {
                if s.conflict_exposed > 0 || s.conflict_squashes > 0 {
                    out.push(Finding::new(
                        kind.label(),
                        "squash-alias",
                        format!(
                            "load {pc:#x} is statically conflict-free but saw \
                             {} exposures / {} squashes",
                            s.conflict_exposed, s.conflict_squashes
                        ),
                    ));
                }
            }
        }
    }

    // 8. Tier equivalence: the streaming emulator replays the batch run
    // record-for-record.
    let mut streamed = lvp_trace::Trace::new();
    for rec in Emulator::new(sp.program.clone()).records(sp.budget) {
        streamed.push(rec);
    }
    if streamed.records() != trace.records() {
        out.push(Finding::new(
            "-",
            "tier-equivalence",
            format!(
                "streaming replay diverged from batch run: {} records vs {}",
                streamed.len(),
                trace.len()
            ),
        ));
    }

    // 6.+7. DLVP deep check: engine counters, xval gate (R1-R7), value
    // accuracy. The simulation goes through the result service — repeated
    // traces (minimizer rounds, duplicate seeds) are served from cache.
    let dep = DepAnalysis::analyze(&sp.program, &analysis);
    let (deep, _) = service.cached(
        || {
            DlvpSimSlice::request_doc(
                trace.fingerprint(),
                sp.budget,
                &cfg.sim.core,
                &cfg.sim.dlvp,
                &cfg.sim.pap,
            )
        },
        |j| DlvpSimSlice::from_json(j).ok(),
        DlvpSimSlice::to_json,
        || DlvpSimSlice::run(trace, cfg.sim.core.clone(), cfg.sim.dlvp, cfg.sim.pap),
    );
    let xval_loads = deep.xval_loads(&analysis);
    let const_free_sites = xval_loads
        .iter()
        .filter(|l| {
            matches!(l.class, lvp_analysis::LoadClass::Constant { .. })
                && l.conflict_free
                && !l.ordered
                && l.stats.attempts > 0
        })
        .count();
    for v in cross_validate(&xval_loads, &cfg.xval) {
        if v.rule == "saturation" && const_free_sites < cfg.min_const_sites_for_saturation {
            // A lone constant load starving is indistinguishable from APT
            // aliasing; only flag aggregate starvation when several
            // independent sites all failed to saturate.
            continue;
        }
        out.push(Finding::new(
            SchemeKind::Dlvp.label(),
            &format!("xval:{}", v.rule),
            v.detail,
        ));
    }
    // Dependence rules R5-R7: must-edge exposure, coverage bounds, and the
    // LSCD-suppression subset check.
    let exercised = must_exercised(trace, &dep);
    for v in cross_validate_dep(
        &xval_loads,
        &DepInputs {
            graph: &dep.graph,
            bounds: &dep.bounds,
            must_exercised: &exercised,
        },
        &cfg.xval,
    ) {
        out.push(Finding::new(
            SchemeKind::Dlvp.label(),
            &format!("xval:{}", v.rule),
            v.detail,
        ));
    }
    for l in &xval_loads {
        let capped = dep
            .bounds
            .iter()
            .any(|b| b.pc == l.pc && b.coverage_bound < 1.0);
        if capped {
            // Static-verdict pruning: the bounds pass caps this load's
            // injection rate, so a value-accuracy sample over `injected`
            // would be noise.
            continue;
        }
        let constant = matches!(l.class, lvp_analysis::LoadClass::Constant { .. });
        if constant && l.conflict_free && l.stats.injected >= cfg.min_injected_const {
            let acc = l.stats.value_correct as f64 / l.stats.injected as f64;
            if acc < cfg.const_min_value_accuracy {
                out.push(Finding::new(
                    SchemeKind::Dlvp.label(),
                    "const-value-accuracy",
                    format!(
                        "conflict-free constant load {:#x}: value accuracy {:.4} \
                         over {} injections (bound {:.2})",
                        l.pc, acc, l.stats.injected, cfg.const_min_value_accuracy
                    ),
                ));
            }
        }
    }
    out
}

/// Counts, per must-conflict edge, the load executions after the store's
/// first execution (R5's exercise metric, mirroring the bench pipeline).
fn must_exercised(trace: &lvp_trace::Trace, dep: &DepAnalysis) -> BTreeMap<(u64, u64), u64> {
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

/// Architectural counters: (instructions, loads, stores, branches).
type ArchCounts = (u64, u64, u64, u64);

fn arch_counts(stats: &SimStats) -> ArchCounts {
    (
        stats.instructions,
        stats.loads,
        stats.stores,
        stats.branches,
    )
}

/// Family 8's counter check: a `tier-equivalence` finding when a scheme's
/// core counted other architectural counters than the trace it ran, whose
/// `len`/`load_count`/`store_count`/`branch_count` use the same predicates.
fn arch_counts_match(scheme: &str, stats: &SimStats, trace: ArchCounts) -> Option<Finding> {
    let core = arch_counts(stats);
    (core != trace).then(|| {
        Finding::new(
            scheme,
            "tier-equivalence",
            format!(
                "core architectural counters (instructions, loads, stores, \
                 branches) {core:?} diverged from the trace's {trace:?}"
            ),
        )
    })
}

fn sanity(out: &mut Vec<Finding>, scheme: &str, stats: &SimStats) {
    let mut push = |detail: String| {
        out.push(Finding::new(scheme, "stats-sanity", detail));
    };
    if stats.vp_correct > stats.vp_predicted {
        push(format!(
            "vp_correct {} > vp_predicted {}",
            stats.vp_correct, stats.vp_predicted
        ));
    }
    if stats.vp_predicted_loads > stats.vp_predicted {
        push(format!(
            "vp_predicted_loads {} > vp_predicted {}",
            stats.vp_predicted_loads, stats.vp_predicted
        ));
    }
    let injected: u64 = stats.per_pc.values().map(|s| s.injected).sum();
    if injected != stats.vp_predicted_loads {
        push(format!(
            "per-PC injections sum to {injected} but vp_predicted_loads is {}",
            stats.vp_predicted_loads
        ));
    }
    for (&pc, s) in &stats.per_pc {
        if s.correct > s.injected {
            push(format!(
                "pc {pc:#x}: correct {} > injected {}",
                s.correct, s.injected
            ));
        }
        if s.injected > s.executions {
            push(format!(
                "pc {pc:#x}: injected {} > executions {}",
                s.injected, s.executions
            ));
        }
        if s.conflict_squashes > s.injected - s.correct.min(s.injected) {
            push(format!(
                "pc {pc:#x}: conflict_squashes {} exceed mispredictions {}",
                s.conflict_squashes,
                s.injected - s.correct.min(s.injected)
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_load_too_many_is_a_tier_equivalence_finding() {
        let stats = SimStats {
            instructions: 100,
            loads: 20,
            stores: 10,
            branches: 5,
            ..SimStats::default()
        };
        let trace = (100, 20, 10, 5);
        assert_eq!(arch_counts_match("DLVP", &stats, trace), None);
        let extra = SimStats { loads: 21, ..stats };
        let finding = arch_counts_match("DLVP", &extra, trace).expect("a finding");
        assert_eq!(finding.invariant, "tier-equivalence");
        assert_eq!(finding.scheme, "DLVP");
        assert!(
            finding.detail.contains("(100, 21, 10, 5)"),
            "{}",
            finding.detail
        );
    }
}
