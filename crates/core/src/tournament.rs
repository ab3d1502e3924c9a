//! Tournament combination of DLVP and VTAGE (paper §5.2.3, Figure 8):
//! "both predictors run concurrently, and a chooser table decides which
//! predictor makes the final prediction. The chooser is PC indexed, and
//! uses 2-bit counters to track which predictor performs better."

use crate::engine::Dlvp;
use crate::pap::Pap;
use crate::vtage::Vtage;
use lvp_branch::GlobalHistory;
use lvp_uarch::{ExecInfo, FetchCtx, FetchSlot, RenamePrediction, VpScheme, VpVerdict};

/// Which component provided the final prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provider {
    Dlvp,
    Vtage,
}

/// Per-provider prediction breakdown (Figure 8b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TournamentCounters {
    /// Final predictions provided by DLVP.
    pub from_dlvp: u64,
    /// Final predictions provided by VTAGE.
    pub from_vtage: u64,
    /// Cycles where both components had a prediction ready (overlap).
    pub both_ready: u64,
}

/// The tournament scheme.
pub struct Tournament {
    dlvp: Dlvp<Pap>,
    vtage: Vtage,
    /// 2-bit chooser counters: ≥ 0 prefers DLVP, < 0 prefers VTAGE.
    chooser: Vec<i8>,
    /// `(seq, pc)` of the instruction in flight, when it has destinations
    /// (one slot: the core runs every hook for one `seq` inside one step).
    pending_pc: Option<(u64, u64)>,
    /// `(seq, provider)` chosen at rename for the instruction in flight.
    chosen: Option<(u64, Provider)>,
    counters: TournamentCounters,
}

impl Tournament {
    /// Builds the paper's tournament over default DLVP and VTAGE.
    pub fn new() -> Tournament {
        Tournament::with_parts(crate::engine::dlvp_default(), Vtage::paper_default())
    }

    /// Builds from explicit components.
    pub fn with_parts(dlvp: Dlvp<Pap>, vtage: Vtage) -> Tournament {
        Tournament {
            dlvp,
            vtage,
            chooser: vec![0; 4096],
            pending_pc: None,
            chosen: None,
            counters: TournamentCounters::default(),
        }
    }

    /// Per-provider breakdown.
    pub fn counters(&self) -> TournamentCounters {
        self.counters
    }

    fn chooser_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.chooser.len() - 1)
    }
}

impl Default for Tournament {
    fn default() -> Tournament {
        Tournament::new()
    }
}

impl VpScheme for Tournament {
    fn name(&self) -> &'static str {
        "DLVP+VTAGE"
    }

    fn track_history(&mut self, hist: &mut GlobalHistory) {
        self.dlvp.track_history(hist);
        self.vtage.track_history(hist);
    }

    fn on_fetch(&mut self, slot: &FetchSlot, ctx: &mut FetchCtx<'_>) {
        self.dlvp.on_fetch(slot, ctx);
        self.vtage.on_fetch(slot, ctx);
        self.pending_pc = (slot.dest_chunks > 0).then_some((slot.seq, slot.pc));
        self.chosen = None;
    }

    fn set_warm_only(&mut self, warm: bool) {
        self.dlvp.set_warm_only(warm);
        self.vtage.set_warm_only(warm);
    }

    fn prediction_at_rename(&mut self, seq: u64, rename: u64) -> Option<RenamePrediction> {
        let d = self.dlvp.prediction_at_rename(seq, rename);
        let v = self.vtage.prediction_at_rename(seq, rename);
        let pc = match self.pending_pc {
            Some((s, pc)) if s == seq => pc,
            _ => 0,
        };
        let provider = match (d, v) {
            (Some(_), Some(_)) => {
                self.counters.both_ready += 1;
                if self.chooser[self.chooser_index(pc)] >= 0 {
                    Provider::Dlvp
                } else {
                    Provider::Vtage
                }
            }
            (Some(_), None) => Provider::Dlvp,
            (None, Some(_)) => Provider::Vtage,
            (None, None) => return None,
        };
        self.chosen = Some((seq, provider));
        match provider {
            Provider::Dlvp => d,
            Provider::Vtage => v,
        }
    }

    fn on_execute(&mut self, info: &ExecInfo<'_>) -> VpVerdict {
        self.pending_pc = None;
        let chosen = self
            .chosen
            .take()
            .filter(|&(seq, _)| seq == info.seq)
            .map(|(_, provider)| provider);
        // Both components always train. Their verdicts tell us who would
        // have been right.
        let dv = self.dlvp.on_execute(info);
        let vv = self.vtage.on_execute(info);
        // Update the chooser whenever the components disagree.
        if dv.predicted && vv.predicted && dv.correct != vv.correct {
            let idx = self.chooser_index(info.pc);
            let c = &mut self.chooser[idx];
            if dv.correct {
                *c = (*c + 1).min(1);
            } else {
                *c = (*c - 1).max(-2);
            }
        }
        let Some(provider) = chosen else {
            return VpVerdict::NONE;
        };
        if !info.was_injected {
            return VpVerdict::NONE;
        }
        match provider {
            Provider::Dlvp => {
                self.counters.from_dlvp += 1;
                dv
            }
            Provider::Vtage => {
                self.counters.from_vtage += 1;
                vv
            }
        }
    }

    fn extra_counters(&self) -> Vec<(&'static str, f64)> {
        let mut v = vec![
            ("tournament_from_dlvp", self.counters.from_dlvp as f64),
            ("tournament_from_vtage", self.counters.from_vtage as f64),
            ("tournament_both_ready", self.counters.both_ready as f64),
        ];
        v.extend(self.dlvp.extra_counters());
        v.extend(self.vtage.extra_counters());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_uarch::{simulate, Core, CoreConfig, NoVp};

    #[test]
    fn tournament_uses_both_providers() {
        // aifirf favours DLVP; nat favours VTAGE. A combined trace exercises
        // both.
        let t = lvp_workloads::by_name("nat").unwrap().trace(80_000);
        let core = Core::new(CoreConfig::default(), Tournament::new());
        let (stats, scheme) = core.run_with_scheme(&t);
        let c = scheme.counters();
        assert!(c.from_dlvp + c.from_vtage > 0, "someone must predict");
        assert!(stats.vp_predicted > 0);
    }

    #[test]
    fn tournament_not_worse_than_either_alone_on_fir() {
        let t = lvp_workloads::by_name("aifirf").unwrap().trace(60_000);
        let base = simulate(&t, NoVp);
        let d = simulate(&t, crate::engine::dlvp_default());
        let both = simulate(&t, Tournament::new());
        let sd = d.speedup_over(&base);
        let sb = both.speedup_over(&base);
        assert!(
            sb > (sd - 1.0) * 0.5 + 1.0 - 0.05,
            "tournament {sb} vs dlvp {sd}"
        );
    }

    #[test]
    fn coverage_overlap_is_large() {
        // Paper Fig 8a: combining adds little coverage — the schemes
        // capture overlapping loads.
        let t = lvp_workloads::by_name("pdfjs").unwrap().trace(80_000);
        let d = simulate(&t, crate::engine::dlvp_default());
        let v = simulate(&t, Vtage::paper_default());
        let both = simulate(&t, Tournament::new());
        let best = d.coverage().max(v.coverage());
        assert!(
            both.coverage() <= d.coverage() + v.coverage(),
            "combined {} cannot exceed the sum {} + {}",
            both.coverage(),
            d.coverage(),
            v.coverage()
        );
        assert!(
            both.coverage() + 1e-9 >= best * 0.8,
            "combined {} vs best {}",
            both.coverage(),
            best
        );
    }
}
