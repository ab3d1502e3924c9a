//! The cacheable slice of a validating DLVP simulation.
//!
//! Both the `analyze` cross-validation gate and the fuzz oracle's DLVP
//! deep check run the same simulation — a [`Core`] wrapping
//! `Dlvp<Pap>` — and read the same outputs from it: cycle/instruction
//! totals, the simulator's per-PC load counters, and the engine's per-PC
//! predictor outcomes. [`DlvpSimSlice`] is that slice plus a lossless
//! JSON codec (its store payload), so the content-addressed result store
//! can serve one consumer's simulation to the other: the request document
//! ([`DlvpSimSlice::request_doc`]) hashes identically for identical
//! `(trace, configs, budget)` no matter which tool asks.

use crate::engine::{Dlvp, DlvpConfig, PcOutcome};
use crate::pap::Pap;
use lvp_analysis::{DynLoadStats, ProgramAnalysis, XvalLoad};
use lvp_json::{json_struct, pc_map, Json, ToJson};
use lvp_trace::Trace;
use lvp_uarch::stats::PcLoadStats;
use lvp_uarch::{Core, CoreConfig, PapConfig};
use std::collections::BTreeMap;

/// Everything the cross-validation consumers read from one validating
/// DLVP simulation.
pub struct DlvpSimSlice {
    /// Cycles the simulation ran for (host-telemetry accounting).
    pub cycles: u64,
    /// Instructions the simulation committed.
    pub instructions: u64,
    /// Simulator per-PC load counters.
    pub per_pc: BTreeMap<u64, PcLoadStats>,
    /// Engine per-PC predictor outcomes.
    pub outcomes: BTreeMap<u64, PcOutcome>,
}

impl DlvpSimSlice {
    /// Runs the validating simulation over `trace`.
    pub fn run(trace: &Trace, core: CoreConfig, dlvp: DlvpConfig, pap: PapConfig) -> DlvpSimSlice {
        let core = Core::new(core, Dlvp::new(dlvp, Pap::new(pap)));
        let (stats, scheme) = core.run_with_scheme(trace);
        DlvpSimSlice {
            cycles: stats.cycles,
            instructions: stats.instructions,
            per_pc: stats.per_pc,
            outcomes: scheme.per_pc_outcomes().clone(),
        }
    }

    /// The cross-validation gate's input: each load's static verdicts
    /// from `analysis`, joined with its dynamic counters from this run.
    pub fn xval_loads(&self, analysis: &ProgramAnalysis) -> Vec<XvalLoad> {
        analysis
            .loads
            .iter()
            .map(|l| XvalLoad {
                pc: l.pc,
                class: l.class,
                conflict_free: l.conflict_free(),
                ordered: l.ordered,
                stats: self.dyn_stats(l.pc),
            })
            .collect()
    }

    /// The merged simulator and engine counters of the load at `pc` (all
    /// zero for a load that never executed).
    fn dyn_stats(&self, pc: u64) -> DynLoadStats {
        let s = self.per_pc.get(&pc).copied().unwrap_or_default();
        let eng = self.outcomes.get(&pc).copied().unwrap_or_default();
        DynLoadStats {
            executions: s.executions,
            conflict_exposed: s.conflict_exposed,
            ordering_violations: s.ordering_violations,
            injected: s.injected,
            value_correct: s.correct,
            attempts: eng.attempts,
            predictions: eng.predictions,
            addr_mispredicts: eng.addr_mispredicts,
            stale_mispredicts: eng.stale_mispredicts,
            lscd_suppressed: eng.lscd_suppressed,
        }
    }

    /// The canonical request document this simulation is a pure function
    /// of: the trace fingerprint, the budget it was generated with, and
    /// every engine knob — including the injectable bugs, so a
    /// bug-injected run never hits a clean run's entry.
    pub fn request_doc(
        trace_fingerprint: u64,
        budget: u64,
        core: &CoreConfig,
        dlvp: &DlvpConfig,
        pap: &PapConfig,
    ) -> Json {
        Json::obj([
            ("kind", Json::Str("dlvp_sim".to_string())),
            ("trace", Json::Str(format!("{trace_fingerprint:016x}"))),
            ("budget", Json::U64(budget)),
            ("core", core.to_json()),
            ("dlvp", dlvp.to_json()),
            ("pap", pap.to_json()),
        ])
    }
}

// The store payload. Exact: every field is `u64` and both maps re-enter
// their ordered form, so a decoded payload re-encodes to the same bytes.
json_struct!(DlvpSimSlice {
    cycles,
    instructions,
    per_pc with pc_map,
    outcomes with pc_map,
});

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_json::FromJson;

    #[test]
    fn slice_payload_round_trips_exactly() {
        let mut per_pc = BTreeMap::new();
        per_pc.insert(
            0x1000,
            PcLoadStats {
                executions: 10,
                conflict_exposed: 2,
                ordering_violations: 1,
                injected: 7,
                correct: 6,
                conflict_squashes: 1,
            },
        );
        let mut outcomes = BTreeMap::new();
        outcomes.insert(
            0x1000,
            PcOutcome {
                attempts: 9,
                predictions: 7,
                addr_mispredicts: 1,
                stale_mispredicts: 1,
                lscd_suppressed: 0,
            },
        );
        let slice = DlvpSimSlice {
            cycles: 123,
            instructions: 456,
            per_pc,
            outcomes,
        };
        let payload = slice.to_json();
        let back = DlvpSimSlice::from_json(&payload).expect("parses");
        assert_eq!(back.to_json().pretty(), payload.pretty());
        assert_eq!(back.cycles, 123);
        assert_eq!(back.per_pc[&0x1000].injected, 7);
        assert_eq!(back.outcomes[&0x1000].predictions, 7);

        let merged = slice.dyn_stats(0x1000);
        assert_eq!((merged.injected, merged.value_correct), (7, 6));
        assert_eq!((merged.attempts, merged.addr_mispredicts), (9, 1));
        assert_eq!(slice.dyn_stats(0x2000), DynLoadStats::default());
    }

    #[test]
    fn payload_decode_rejects_malformed_shapes() {
        assert!(DlvpSimSlice::from_json(&Json::Null).is_err());
        let good = DlvpSimSlice {
            cycles: 1,
            instructions: 1,
            per_pc: BTreeMap::new(),
            outcomes: BTreeMap::new(),
        }
        .to_json();
        let mut missing = good.clone();
        if let Json::Object(pairs) = &mut missing {
            pairs.retain(|(k, _)| k != "outcomes");
        }
        assert!(DlvpSimSlice::from_json(&missing).is_err());
    }

    #[test]
    fn request_doc_separates_configs_and_traces() {
        let core = CoreConfig::default();
        let dlvp = DlvpConfig::default();
        let pap = PapConfig::default();
        let a = DlvpSimSlice::request_doc(1, 1000, &core, &dlvp, &pap);
        let b = DlvpSimSlice::request_doc(2, 1000, &core, &dlvp, &pap);
        assert_ne!(a.canonical(), b.canonical());
        let bugged = DlvpConfig {
            inject_lscd_bug: true,
            ..dlvp
        };
        let c = DlvpSimSlice::request_doc(1, 1000, &core, &bugged, &pap);
        assert_ne!(a.canonical(), c.canonical());
    }
}
