//! The value-prediction scheme interface.
//!
//! The core model is generic over a [`VpScheme`]: the DLVP crate implements
//! this trait for PAP-based DLVP, CAP-based DLVP, VTAGE and the tournament
//! combination. The engine calls the scheme at three points:
//!
//! 1. [`VpScheme::on_fetch`] — in program order, for every instruction, at
//!    its fetch cycle. Address predictors look up their tables here and may
//!    schedule opportunistic data-cache probes through [`FetchCtx`].
//! 2. [`VpScheme::prediction_at_rename`] — when an instruction with
//!    destination registers reaches rename; returns whether a timely
//!    predicted value is available for injection.
//! 3. [`VpScheme::on_execute`] — with the actual execution results, for
//!    training and for the final correct/incorrect verdict.
//!
//! **One-step contract.** The core is a one-pass timestamp model: a single
//! `Core::step` carries one dynamic instruction through all three hooks,
//! `on_fetch` → `prediction_at_rename` (when it has destinations and is not
//! a branch) → `on_execute`, before the next instruction's `on_fetch`. The
//! hooks for different `seq`s never interleave, so a scheme needs exactly
//! one in-flight slot — the state `on_fetch` leaves for its own `seq` —
//! and never a map from `seq` to pending state. (The *timestamps* the
//! hooks see still overlap as in a real pipeline; only the host-side calls
//! are serialized.) Before the first step, [`VpScheme::track_history`]
//! hands the scheme the core's global history once, so the history folds
//! the scheme reads are maintained incrementally by the history itself.

use crate::lanes::LaneTracker;
use lvp_branch::GlobalHistory;
use lvp_isa::Instruction;
use lvp_mem::MemoryHierarchy;
use lvp_obs::SinkHandle;

/// One instruction as seen by the front-end.
#[derive(Debug, Clone, Copy)]
pub struct FetchSlot {
    /// Dynamic sequence number.
    pub seq: u64,
    pub pc: u64,
    /// Fetch group address — the paper's FGA, used by PAP as a proxy for
    /// the load PC (§3.1.1).
    pub fga: u64,
    /// Position of this instruction within its fetch group.
    pub index_in_group: u32,
    /// How many loads precede this one in the same fetch group (PAP predicts
    /// at most two loads per group).
    pub load_index_in_group: u32,
    pub inst: Instruction,
    /// `inst`'s destination chunks ([`Instruction::dest_chunks`]), from the
    /// core's predecode table.
    pub dest_chunks: u32,
}

/// Front-end context available to schemes during [`VpScheme::on_fetch`].
///
/// Carries a type-erased observability sink ([`SinkHandle`]) so the trait
/// stays object-safe; schemes guard emission with `ctx.sink.enabled()`,
/// which is `false` (one predictable branch) for an untraced run.
pub struct FetchCtx<'a> {
    /// Fetch cycle of the instruction's group.
    pub cycle: u64,
    /// Earliest cycle the instruction can reach rename (fetch depth with no
    /// stalls); predicted values must arrive by the *actual* rename cycle.
    pub expected_rename: u64,
    /// Global conditional-branch history (what VTAGE hashes).
    pub history: &'a GlobalHistory,
    /// Execution-lane occupancy, for finding LS-lane probe bubbles.
    pub lanes: &'a mut LaneTracker,
    /// The memory hierarchy, for speculative L1D probes and prefetches.
    pub mem: &'a mut MemoryHierarchy,
    /// Observability sink; schemes emit through this, never read from it.
    pub sink: SinkHandle<'a>,
}

/// A prediction the scheme can deliver at rename.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenamePrediction {
    /// Number of 64-bit chunks covered (1 for LDR, 2 for LDP/VLD, n for LDM).
    pub chunks: u32,
}

/// Execution results handed to the scheme for training and validation.
#[derive(Debug, Clone, Copy)]
pub struct ExecInfo<'a> {
    pub seq: u64,
    pub pc: u64,
    pub inst: Instruction,
    /// Effective address (memory ops only; 0 otherwise).
    pub eff_addr: u64,
    /// Actual produced 64-bit chunks, in destination order.
    pub values: &'a [u64],
    /// Cycle the instruction executed.
    pub exec_cycle: u64,
    /// Commit cycle of the youngest *older* store overlapping this load's
    /// location, if any — the scheme compares this with its probe cycle to
    /// recognise the in-flight-store staleness of paper §3.2.2.
    pub conflicting_store_commit: Option<u64>,
    /// L1D way the block resides in after this load's demand access (for
    /// way-prediction training); `None` when the load was served by
    /// store-to-load forwarding.
    pub l1_way: Option<u8>,
    /// Whether the engine actually injected this instruction's prediction at
    /// rename (false when the PVT was full or the injection-rate limit hit).
    pub was_injected: bool,
}

/// The scheme's verdict on one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VpVerdict {
    /// The scheme had made a prediction for this instruction.
    pub predicted: bool,
    /// The prediction matched every produced chunk.
    pub correct: bool,
}

impl VpVerdict {
    /// No prediction was made.
    pub const NONE: VpVerdict = VpVerdict {
        predicted: false,
        correct: false,
    };
}

/// A value-prediction scheme plugged into the core model.
///
/// The trait is object-safe: the core runs `Core<Box<dyn VpScheme>>`
/// exactly as it runs a concrete `Core<Dlvp<Pap>>`, which is what lets the
/// scheme registry hand out boxed schemes built from a `SimConfig`.
pub trait VpScheme {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Called once, when a core is built around the scheme, with the core's
    /// global history (the one [`FetchCtx::history`] will show): register
    /// the folds the scheme reads with [`GlobalHistory::track`]. Default:
    /// nothing (schemes that do not read the history).
    fn track_history(&mut self, _hist: &mut GlobalHistory) {}

    /// Called at fetch, in program order, for every instruction. The
    /// context's sink is type-erased; guard emissions with
    /// `ctx.sink.enabled()`.
    fn on_fetch(&mut self, slot: &FetchSlot, ctx: &mut FetchCtx<'_>);

    /// Called at rename for instructions with destination registers. Return
    /// `Some` iff a predicted value is available *by* `rename_cycle`.
    /// Must not consume training state (that happens in
    /// [`VpScheme::on_execute`]).
    fn prediction_at_rename(&mut self, seq: u64, rename_cycle: u64) -> Option<RenamePrediction>;

    /// Called at execute with actual results. Train here; return the
    /// verdict on any prediction made for `info.seq`.
    fn on_execute(&mut self, info: &ExecInfo<'_>) -> VpVerdict;

    /// Scheme-specific counters for the harnesses (e.g. the tournament's
    /// per-provider breakdown, LSCD suppressions, PAQ drops).
    fn extra_counters(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Storage budget of the scheme's predictor tables in bits (0 for
    /// schemes with no tables, e.g. the baseline).
    fn storage_bits(&self) -> u64 {
        0
    }

    /// Predictor table traffic as `(reads, writes)`, for energy accounting.
    fn activity(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Switches warm-only mode: the scheme keeps observing and training
    /// (`on_fetch`/`on_execute` run as usual) but must stop delivering
    /// predictions at rename, so nothing speculative is injected. The
    /// sampled-simulation driver warms predictor state through this during
    /// `warmup` windows. Default: ignored (schemes that never inject need
    /// no gate).
    fn set_warm_only(&mut self, _warm: bool) {}
}

/// Forwards every [`VpScheme`] hook through a pointer to a scheme.
macro_rules! forward_vp_scheme {
    ($ptr:ty) => {
        impl<S: VpScheme + ?Sized> VpScheme for $ptr {
            fn name(&self) -> &'static str {
                (**self).name()
            }

            fn track_history(&mut self, hist: &mut GlobalHistory) {
                (**self).track_history(hist);
            }

            fn on_fetch(&mut self, slot: &FetchSlot, ctx: &mut FetchCtx<'_>) {
                (**self).on_fetch(slot, ctx);
            }

            fn prediction_at_rename(
                &mut self,
                seq: u64,
                rename_cycle: u64,
            ) -> Option<RenamePrediction> {
                (**self).prediction_at_rename(seq, rename_cycle)
            }

            fn on_execute(&mut self, info: &ExecInfo<'_>) -> VpVerdict {
                (**self).on_execute(info)
            }

            fn extra_counters(&self) -> Vec<(&'static str, f64)> {
                (**self).extra_counters()
            }

            fn storage_bits(&self) -> u64 {
                (**self).storage_bits()
            }

            fn activity(&self) -> (u64, u64) {
                (**self).activity()
            }

            fn set_warm_only(&mut self, warm: bool) {
                (**self).set_warm_only(warm);
            }
        }
    };
}

forward_vp_scheme!(Box<S>);
// A core can drive a borrowed scheme, so a caller that owns the scheme
// (the sampled driver's per-member state) lends it to one core per window.
forward_vp_scheme!(&mut S);

/// The baseline: no value prediction.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoVp;

impl VpScheme for NoVp {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn on_fetch(&mut self, _slot: &FetchSlot, _ctx: &mut FetchCtx<'_>) {}

    fn prediction_at_rename(&mut self, _seq: u64, _rename: u64) -> Option<RenamePrediction> {
        None
    }

    fn on_execute(&mut self, _info: &ExecInfo<'_>) -> VpVerdict {
        VpVerdict::NONE
    }
}

/// An oracle scheme that predicts every load perfectly: the upper bound used
/// in integration tests to check the engine's dependence-breaking machinery.
#[derive(Debug, Default, Clone)]
pub struct OracleLoadVp {
    /// The in-flight load, if the instruction in flight is one.
    load_seq: Option<u64>,
}

impl VpScheme for OracleLoadVp {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn on_fetch(&mut self, slot: &FetchSlot, _ctx: &mut FetchCtx<'_>) {
        self.load_seq = slot.inst.is_load().then_some(slot.seq);
    }

    fn prediction_at_rename(&mut self, seq: u64, _rename: u64) -> Option<RenamePrediction> {
        (self.load_seq == Some(seq)).then_some(RenamePrediction { chunks: 1 })
    }

    fn on_execute(&mut self, info: &ExecInfo<'_>) -> VpVerdict {
        if self.load_seq.take() == Some(info.seq) {
            VpVerdict {
                predicted: true,
                correct: true,
            }
        } else {
            VpVerdict::NONE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn novp_never_predicts() {
        let mut s = NoVp;
        assert_eq!(s.prediction_at_rename(1, 10), None);
        assert_eq!(s.name(), "baseline");
        assert!(s.extra_counters().is_empty());
    }
}
