//! Static-vs-dynamic cross-validation: the gate that turns the static
//! classification into a semantic oracle over the simulator.
//!
//! Each rule states an implication that must hold if *both* the static
//! analyzer and the dynamic predictor/simulator are correct. A violation
//! therefore indicates a bug on one side (or an unsound threshold), and the
//! `analyze` CLI fails CI when any rule fires:
//!
//! * **R1 `conflict-free`** — a load proven conflict-free by the alias pass
//!   must never observe an in-flight overlapping store in the simulator
//!   (`conflict_exposed == 0`). This is an exact implication: the static
//!   region over-approximates the touched granules, and the simulator
//!   detects conflicts at the same granularity.
//! * **R2 `const-accuracy`** — a constant-address load that the predictor
//!   commits to (enough issued predictions) must have a near-zero address
//!   mispredict rate: its address never changes, so a trained APT entry
//!   cannot go stale.
//! * **R3 `addr-accuracy`** — *any* load with many issued predictions must
//!   keep its address mispredict rate below a loose bound. High confidence
//!   with a high mispredict rate means the APT failed to reset confidence
//!   on address mismatch (the paper's §3.1.2 training rule) — this is the
//!   rule that catches the injected-bug regression test.
//! * **R4 `saturation`** — aggregate: if *conflict-free* constant-address
//!   loads were looked up many times in total, at least one prediction must
//!   have been issued; a predictor that never saturates confidence on
//!   conflict-free constant addresses is broken. Conflicting loads are
//!   exempt — suppressing them is the mechanism working as designed.
//!
//! R2–R4 involve thresholds because the APT is indexed by *proxy* PC
//! (fetch-group address + load index), so distinct loads can collide and a
//! single load can migrate between entries when fetch alignment changes;
//! the defaults leave headroom for that structural noise.
//!
//! The path-sensitive dependence pass ([`crate::conflict`],
//! [`crate::bounds`]) adds three more rules, run by
//! [`cross_validate_dep`]:
//!
//! * **R5 `must-conflict`** — a must-conflict (load, store) edge that a
//!   workload exercises (the load committed enough executions *after* the
//!   store first executed) must show at least one dynamic
//!   `conflict_exposed`: the simulator tracks written granules
//!   persistently, so a load reading a granule a committed store provably
//!   wrote cannot be conflict-silent.
//! * **R6 `coverage-bound`** — per-PC dynamic coverage
//!   (`injected / executions`) must not exceed the static upper bound plus
//!   slack. Ordered loads are bounded at 0 exactly; provably-advancing
//!   strided loads at a small constant (their address never repeats on
//!   consecutive executions, so confidence cannot legitimately saturate).
//! * **R7 `lscd-subset`** — the loads LSCD dynamically suppresses must be
//!   a subset of the static may-conflict set: LSCD entries are inserted on
//!   address-correct squashes by in-flight stores, which a statically
//!   conflict-free load can never experience.
//!
//! Rule **R8** (statically distinct path contexts colliding in the
//! configured path hash) is a warn-level *audit*, not a violation — see
//! [`crate::bounds::hash_collisions`]; the `analyze` report counts it.

use crate::bounds::LoadBounds;
use crate::conflict::ConflictGraph;
use crate::dataflow::LoadClass;
use std::collections::BTreeMap;

/// Dynamic per-load-PC counters merged from the simulator
/// (`lvp_uarch::stats`) and the DLVP engine (`dlvp::engine`). The analysis
/// crate only sees plain numbers; `dlvp::DlvpSimSlice::xval_loads` does the
/// merging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynLoadStats {
    /// Committed executions of the load.
    pub executions: u64,
    /// Executions that observed an in-flight older overlapping store.
    pub conflict_exposed: u64,
    /// Memory-ordering violations charged to this PC.
    pub ordering_violations: u64,
    /// Value predictions injected at rename.
    pub injected: u64,
    /// Injected predictions whose value was correct.
    pub value_correct: u64,
    /// APT lookups performed for this PC (post LSCD/ordering filters).
    pub attempts: u64,
    /// Confident address predictions issued (probe launched).
    pub predictions: u64,
    /// Issued predictions whose address (or size) was wrong.
    pub addr_mispredicts: u64,
    /// Address-correct predictions squashed by a conflicting store.
    pub stale_mispredicts: u64,
    /// Fetched instances the LSCD filter suppressed (no APT lookup).
    pub lscd_suppressed: u64,
}

/// Thresholds for the statistical rules (R2–R4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XvalConfig {
    /// R2: minimum issued predictions before the constant-address accuracy
    /// bound applies.
    pub min_predictions_const: u64,
    /// R2: maximum address mispredict rate for constant-address loads.
    pub const_max_mispredict_rate: f64,
    /// R3: minimum issued predictions before the general accuracy bound
    /// applies.
    pub min_predictions_any: u64,
    /// R3: maximum address mispredict rate for any load.
    pub any_max_mispredict_rate: f64,
    /// R4: minimum total APT lookups over constant-address loads before
    /// demanding at least one issued prediction.
    pub min_attempts_saturation: u64,
    /// R5: minimum load executions *after* the store's first execution
    /// before an unexposed must-edge is a violation.
    pub min_must_exercised: u64,
    /// R6: minimum committed executions before the coverage bound applies.
    pub min_executions_coverage: u64,
    /// R6: additive slack over the static bound, absorbing APT proxy-PC
    /// aliasing (an aliased entry trained by another load can issue
    /// predictions this PC never earned).
    pub coverage_slack: f64,
}

impl Default for XvalConfig {
    fn default() -> Self {
        XvalConfig {
            min_predictions_const: 32,
            const_max_mispredict_rate: 0.10,
            min_predictions_any: 64,
            any_max_mispredict_rate: 0.25,
            min_attempts_saturation: 128,
            min_must_exercised: 4,
            min_executions_coverage: 64,
            coverage_slack: 0.10,
        }
    }
}

/// One load PC's static verdicts plus its dynamic counters.
#[derive(Debug, Clone, Copy)]
pub struct XvalLoad {
    /// The load's program counter.
    pub pc: u64,
    /// Static address class.
    pub class: LoadClass,
    /// Whether the alias pass proved no store can overlap this load.
    pub conflict_free: bool,
    /// Whether the load has acquire semantics (the engine never predicts
    /// ordered loads, so R4 excludes them).
    pub ordered: bool,
    /// Merged dynamic counters.
    pub stats: DynLoadStats,
}

/// A single rule violation. `pc == 0` marks program-aggregate rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Offending load PC, or 0 for aggregate rules.
    pub pc: u64,
    /// Stable rule name (`conflict-free`, `const-accuracy`, `addr-accuracy`,
    /// `saturation`, `must-conflict`, `coverage-bound`, `lscd-subset`).
    pub rule: &'static str,
    /// Human-readable, deterministic explanation.
    pub detail: String,
}

/// Runs all rules over one program's loads. Returns violations in rule
/// order, then PC order — deterministic for a given input.
pub fn cross_validate(loads: &[XvalLoad], cfg: &XvalConfig) -> Vec<Violation> {
    let mut out = Vec::new();

    // R1: statically conflict-free ⇒ dynamically conflict-free.
    for l in loads {
        if l.conflict_free && l.stats.conflict_exposed > 0 {
            out.push(Violation {
                pc: l.pc,
                rule: "conflict-free",
                detail: format!(
                    "load {:#x} is statically conflict-free but observed {} in-flight store conflicts over {} executions",
                    l.pc, l.stats.conflict_exposed, l.stats.executions
                ),
            });
        }
    }

    // R2: constant address ⇒ accurate once the predictor commits.
    for l in loads {
        let LoadClass::Constant { addr } = l.class else {
            continue;
        };
        let s = l.stats;
        if s.predictions >= cfg.min_predictions_const {
            let rate = s.addr_mispredicts as f64 / s.predictions as f64;
            if rate > cfg.const_max_mispredict_rate {
                out.push(Violation {
                    pc: l.pc,
                    rule: "const-accuracy",
                    detail: format!(
                        "load {:#x} has constant address {:#x} but mispredicted {}/{} issued predictions (rate {:.4} > {:.4})",
                        l.pc, addr, s.addr_mispredicts, s.predictions, rate, cfg.const_max_mispredict_rate
                    ),
                });
            }
        }
    }

    // R3: confident predictions must be mostly right for every load.
    for l in loads {
        let s = l.stats;
        if s.predictions >= cfg.min_predictions_any {
            let rate = s.addr_mispredicts as f64 / s.predictions as f64;
            if rate > cfg.any_max_mispredict_rate {
                out.push(Violation {
                    pc: l.pc,
                    rule: "addr-accuracy",
                    detail: format!(
                        "load {:#x} ({}) mispredicted {}/{} issued predictions (rate {:.4} > {:.4}); confidence should have reset on address mismatch",
                        l.pc, l.class.name(), s.addr_mispredicts, s.predictions, rate, cfg.any_max_mispredict_rate
                    ),
                });
            }
        }
    }

    // R4: the predictor must saturate on constant addresses (aggregate).
    // Only conflict-free loads count: a constant load under a recurring
    // store conflict is *supposed* to be suppressed (LSCD keeps resetting
    // its confidence), so demanding predictions there would flag the very
    // behavior the mechanism exists to provide.
    let (mut attempts, mut predictions) = (0u64, 0u64);
    for l in loads {
        if matches!(l.class, LoadClass::Constant { .. }) && !l.ordered && l.conflict_free {
            attempts += l.stats.attempts;
            predictions += l.stats.predictions;
        }
    }
    if attempts >= cfg.min_attempts_saturation && predictions == 0 {
        out.push(Violation {
            pc: 0,
            rule: "saturation",
            detail: format!(
                "conflict-free constant-address loads were looked up {attempts} times but the predictor never issued a prediction; APT confidence failed to saturate"
            ),
        });
    }

    out
}

/// Static dependence facts the R5–R7 rules check dynamic counters against.
/// The bench/oracle layer builds `must_exercised` from the trace.
#[derive(Debug, Clone, Copy)]
pub struct DepInputs<'a> {
    /// The store→load conflict graph.
    pub graph: &'a ConflictGraph,
    /// Per-load static bounds, any order (matched by PC).
    pub bounds: &'a [LoadBounds],
    /// Per must-edge `(load_pc, store_pc)`: committed load executions
    /// *after* the store's first dynamic execution. Absent or zero means
    /// the workload did not exercise the edge (the store never committed
    /// before the load ran), which exempts it from R5.
    pub must_exercised: &'a BTreeMap<(u64, u64), u64>,
}

/// Runs the dependence rules R5–R7 over one program's loads. Violations
/// come out in rule order, then PC order — deterministic for a given
/// input. Callers typically append these to [`cross_validate`]'s output.
pub fn cross_validate_dep(
    loads: &[XvalLoad],
    dep: &DepInputs<'_>,
    cfg: &XvalConfig,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let by_pc: BTreeMap<u64, &XvalLoad> = loads.iter().map(|l| (l.pc, l)).collect();

    // R5: an exercised must-conflict edge must show dynamic exposure.
    for e in dep.graph.must_edges() {
        let Some(l) = by_pc.get(&e.load_pc) else {
            continue;
        };
        let exercised = dep
            .must_exercised
            .get(&(e.load_pc, e.store_pc))
            .copied()
            .unwrap_or(0);
        if exercised >= cfg.min_must_exercised && l.stats.conflict_exposed == 0 {
            out.push(Violation {
                pc: e.load_pc,
                rule: "must-conflict",
                detail: format!(
                    "load {:#x} must-conflicts with store {:#x} and ran {} times after the store first committed, but observed no conflict exposure",
                    e.load_pc, e.store_pc, exercised
                ),
            });
        }
    }

    // R6: dynamic coverage must respect the static upper bound.
    for b in dep.bounds {
        let Some(l) = by_pc.get(&b.pc) else {
            continue;
        };
        let s = l.stats;
        if s.executions < cfg.min_executions_coverage {
            continue;
        }
        let coverage = s.injected as f64 / s.executions as f64;
        let limit = b.coverage_bound + cfg.coverage_slack;
        if coverage > limit {
            out.push(Violation {
                pc: b.pc,
                rule: "coverage-bound",
                detail: format!(
                    "load {:#x} ({}) was injected {}/{} executions (coverage {:.4} > static bound {:.2} + slack {:.2})",
                    b.pc, l.class.name(), s.injected, s.executions, coverage, b.coverage_bound, cfg.coverage_slack
                ),
            });
        }
    }

    // R7: LSCD suppressions only on statically may-conflicting loads.
    for l in loads {
        if l.conflict_free && l.stats.lscd_suppressed > 0 {
            out.push(Violation {
                pc: l.pc,
                rule: "lscd-subset",
                detail: format!(
                    "load {:#x} is statically conflict-free but LSCD suppressed it {} times; LSCD entries require an in-flight-store squash that conflict-free loads cannot experience",
                    l.pc, l.stats.lscd_suppressed
                ),
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(pc: u64, class: LoadClass, conflict_free: bool, stats: DynLoadStats) -> XvalLoad {
        XvalLoad {
            pc,
            class,
            conflict_free,
            ordered: false,
            stats,
        }
    }

    #[test]
    fn clean_stats_pass() {
        let loads = [load(
            0x1000,
            LoadClass::Constant { addr: 0x8000 },
            true,
            DynLoadStats {
                executions: 500,
                attempts: 500,
                predictions: 400,
                value_correct: 400,
                injected: 400,
                ..Default::default()
            },
        )];
        assert!(cross_validate(&loads, &XvalConfig::default()).is_empty());
    }

    #[test]
    fn conflict_free_load_with_dynamic_conflict_fires_r1() {
        let loads = [load(
            0x1000,
            LoadClass::Strided,
            true,
            DynLoadStats {
                executions: 10,
                conflict_exposed: 1,
                ..Default::default()
            },
        )];
        let v = cross_validate(&loads, &XvalConfig::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "conflict-free");
        assert_eq!(v[0].pc, 0x1000);
    }

    #[test]
    fn inaccurate_constant_load_fires_r2_and_r3() {
        let loads = [load(
            0x1000,
            LoadClass::Constant { addr: 0x8000 },
            false,
            DynLoadStats {
                executions: 200,
                attempts: 200,
                predictions: 100,
                addr_mispredicts: 50,
                ..Default::default()
            },
        )];
        let v = cross_validate(&loads, &XvalConfig::default());
        let rules: Vec<_> = v.iter().map(|x| x.rule).collect();
        assert_eq!(rules, ["const-accuracy", "addr-accuracy"]);
    }

    #[test]
    fn below_threshold_counts_are_ignored() {
        let loads = [load(
            0x1000,
            LoadClass::Constant { addr: 0x8000 },
            false,
            DynLoadStats {
                executions: 10,
                attempts: 10,
                predictions: 4,
                addr_mispredicts: 4,
                ..Default::default()
            },
        )];
        assert!(cross_validate(&loads, &XvalConfig::default()).is_empty());
    }

    #[test]
    fn never_saturating_predictor_fires_r4() {
        let loads = [load(
            0x1000,
            LoadClass::Constant { addr: 0x8000 },
            true,
            DynLoadStats {
                executions: 300,
                attempts: 300,
                ..Default::default()
            },
        )];
        let v = cross_validate(&loads, &XvalConfig::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "saturation");
        assert_eq!(v[0].pc, 0);
    }

    #[test]
    fn constant_load_moderate_predictions_fires_r2_only() {
        // Predictions land in [min_predictions_const, min_predictions_any):
        // the constant-accuracy rule applies but the general one stays
        // silent, isolating R2.
        let loads = [load(
            0x1000,
            LoadClass::Constant { addr: 0x8000 },
            false,
            DynLoadStats {
                executions: 100,
                attempts: 100,
                predictions: 40,
                addr_mispredicts: 20,
                ..Default::default()
            },
        )];
        let v = cross_validate(&loads, &XvalConfig::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "const-accuracy");
        assert_eq!(v[0].pc, 0x1000);
    }

    #[test]
    fn inaccurate_strided_load_fires_r3_only() {
        // A non-constant class keeps R2 out; rate is above the loose bound.
        let loads = [load(
            0x1000,
            LoadClass::Strided,
            false,
            DynLoadStats {
                executions: 300,
                attempts: 300,
                predictions: 100,
                addr_mispredicts: 30,
                ..Default::default()
            },
        )];
        let v = cross_validate(&loads, &XvalConfig::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "addr-accuracy");
        assert_eq!(v[0].pc, 0x1000);
    }

    #[test]
    fn conflicting_loads_are_exempt_from_saturation() {
        let l = load(
            0x1000,
            LoadClass::Constant { addr: 0x8000 },
            false,
            DynLoadStats {
                executions: 300,
                attempts: 300,
                ..Default::default()
            },
        );
        assert!(cross_validate(&[l], &XvalConfig::default()).is_empty());
    }

    #[test]
    fn ordered_loads_are_exempt_from_saturation() {
        let mut l = load(
            0x1000,
            LoadClass::Constant { addr: 0x8000 },
            true,
            DynLoadStats {
                executions: 300,
                attempts: 300,
                ..Default::default()
            },
        );
        l.ordered = true;
        assert!(cross_validate(&[l], &XvalConfig::default()).is_empty());
    }

    // ---- R5–R7 -------------------------------------------------------

    use crate::conflict::{ConflictEdge, EdgeKind};

    fn must_graph(load_pc: u64, store_pc: u64) -> ConflictGraph {
        ConflictGraph {
            edges: vec![ConflictEdge {
                load_pc,
                store_pc,
                kind: EdgeKind::Must,
                contexts: vec![0],
            }],
        }
    }

    #[test]
    fn exercised_must_edge_without_exposure_fires_r5() {
        let graph = must_graph(0x1000, 0x1010);
        let loads = [load(
            0x1000,
            LoadClass::Constant { addr: 0x8000 },
            false,
            DynLoadStats {
                executions: 100,
                ..Default::default()
            },
        )];
        let exercised: BTreeMap<(u64, u64), u64> = [((0x1000u64, 0x1010u64), 50u64)].into();
        let dep = DepInputs {
            graph: &graph,
            bounds: &[],
            must_exercised: &exercised,
        };
        let v = cross_validate_dep(&loads, &dep, &XvalConfig::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "must-conflict");
        assert_eq!(v[0].pc, 0x1000);
        // With exposure recorded the rule is satisfied.
        let mut ok = loads;
        ok[0].stats.conflict_exposed = 3;
        assert!(cross_validate_dep(&ok, &dep, &XvalConfig::default()).is_empty());
    }

    #[test]
    fn unexercised_must_edge_is_exempt_from_r5() {
        let graph = must_graph(0x1000, 0x1010);
        let loads = [load(
            0x1000,
            LoadClass::Constant { addr: 0x8000 },
            false,
            DynLoadStats {
                executions: 100,
                ..Default::default()
            },
        )];
        let exercised: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let dep = DepInputs {
            graph: &graph,
            bounds: &[],
            must_exercised: &exercised,
        };
        assert!(cross_validate_dep(&loads, &dep, &XvalConfig::default()).is_empty());
    }

    #[test]
    fn coverage_above_static_bound_fires_r6() {
        let graph = ConflictGraph::default();
        let bounds = [crate::bounds::LoadBounds {
            pc: 0x1000,
            coverage_bound: 0.35,
            must_conflict: false,
        }];
        let loads = [load(
            0x1000,
            LoadClass::Strided,
            true,
            DynLoadStats {
                executions: 200,
                injected: 150, // coverage 0.75 > 0.35 + 0.10
                ..Default::default()
            },
        )];
        let exercised = BTreeMap::new();
        let dep = DepInputs {
            graph: &graph,
            bounds: &bounds,
            must_exercised: &exercised,
        };
        let v = cross_validate_dep(&loads, &dep, &XvalConfig::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "coverage-bound");
        // Within the bound (plus slack) nothing fires.
        let mut ok = loads;
        ok[0].stats.injected = 80; // 0.40 <= 0.45
        assert!(cross_validate_dep(&ok, &dep, &XvalConfig::default()).is_empty());
        // Below the execution floor the rule abstains.
        let mut few = loads;
        few[0].stats.executions = 10;
        few[0].stats.injected = 10;
        assert!(cross_validate_dep(&few, &dep, &XvalConfig::default()).is_empty());
    }

    #[test]
    fn lscd_suppression_of_conflict_free_load_fires_r7() {
        let graph = ConflictGraph::default();
        let exercised = BTreeMap::new();
        let dep = DepInputs {
            graph: &graph,
            bounds: &[],
            must_exercised: &exercised,
        };
        let mut l = load(
            0x1000,
            LoadClass::Constant { addr: 0x8000 },
            true,
            DynLoadStats {
                executions: 100,
                lscd_suppressed: 5,
                ..Default::default()
            },
        );
        let v = cross_validate_dep(&[l], &dep, &XvalConfig::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "lscd-subset");
        // May-conflicting loads are allowed to be suppressed.
        l.conflict_free = false;
        assert!(cross_validate_dep(&[l], &dep, &XvalConfig::default()).is_empty());
    }
}
