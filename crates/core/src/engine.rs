//! The DLVP microarchitecture (paper §3.2.2), as a `lvp_uarch::VpScheme`.
//!
//! The flow follows Figure 3: ① PAP predicts load addresses in the first
//! fetch stage; ② predictions travel to the OoO engine into the PAQ; ③ on
//! load/store-lane bubbles the predicted addresses opportunistically probe
//! the L1D (one way, when way prediction hits); ④ a probe hit delivers the
//! value to the Value Prediction Engine by rename; ⑤ a probe miss can emit a
//! prefetch; ⑥ the executing load validates the prediction and always
//! trains the APT. The LSCD filter suppresses loads that conflicted with
//! in-flight stores.
//!
//! The engine is generic over the [`AddressPredictor`] — instantiate with
//! [`crate::Pap`] for DLVP proper or [`crate::Cap`] for the paper's
//! "CAP" configuration (§5.2.3: "just like DLVP except CAP address
//! predictor is used").

use crate::addr::{size_code_for, AddressPredictor};
use crate::lscd::Lscd;
use crate::paq::Paq;
use lvp_obs::{FilterReason, ObsEvent};
use lvp_uarch::{ExecInfo, FetchCtx, FetchSlot, RenamePrediction, VpScheme, VpVerdict};
use std::collections::{BTreeMap, HashMap};

// The configuration record lives with the rest of the `SimConfig` aggregate
// in `lvp-uarch`; re-exported here at its historical path.
pub use lvp_uarch::simconfig::DlvpConfig;

#[derive(Debug, Clone, Copy)]
struct ProbedPrediction {
    addr: u64,
    size_code: u8,
    probe_cycle: u64,
    /// Cycle the retrieved value reaches the VPE.
    value_ready: u64,
}

struct Pending<C> {
    train_ctx: Option<C>,
    prediction: Option<ProbedPrediction>,
}

/// Scheme-level counters beyond what the core model tracks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DlvpCounters {
    /// Confident address predictions issued by the address predictor.
    pub addr_predictions: u64,
    /// Loads suppressed by the LSCD filter.
    pub lscd_suppressed: u64,
    /// Probes that found the block in a different way than predicted.
    pub way_mispredicts: u64,
    /// Injected predictions whose address was right but whose probed value
    /// had been overwritten by a store still in flight at probe time.
    pub stale_value_mispredicts: u64,
    /// Injected predictions with a wrong predicted address.
    pub addr_mispredicts: u64,
    /// Predictions whose value arrived after the load's rename cycle.
    pub late_values: u64,
    /// Prefetches issued on probe misses.
    pub prefetches: u64,
}

/// Per-load-PC predictor outcomes, keyed by the load's *architectural* PC
/// (not the FGA proxy PC used to index the APT). Consumed by the
/// `lvp-analysis` cross-validation gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcOutcome {
    /// APT lookups performed (the load passed the ordering/LSCD/port
    /// filters).
    pub attempts: u64,
    /// Lookups that returned a confident address prediction.
    pub predictions: u64,
    /// Validated predictions whose address (or size) was wrong.
    pub addr_mispredicts: u64,
    /// Address-correct predictions squashed because the probed value was
    /// stale (conflicting in-flight store).
    pub stale_mispredicts: u64,
    /// Fetches of this PC the LSCD filter suppressed. The gate's rule R7
    /// demands this stays 0 for statically conflict-free loads.
    pub lscd_suppressed: u64,
}

lvp_json::json_struct!(PcOutcome {
    attempts,
    predictions,
    addr_mispredicts,
    stale_mispredicts,
    lscd_suppressed,
});

/// Decoupled Load Value Prediction over an address predictor `A`.
pub struct Dlvp<A: AddressPredictor> {
    cfg: DlvpConfig,
    predictor: A,
    lscd: Lscd,
    paq: Paq,
    pending: HashMap<u64, Pending<A::Ctx>>,
    counters: DlvpCounters,
    /// Per-PC outcomes (ordered so exports are deterministic).
    per_pc: BTreeMap<u64, PcOutcome>,
    name: &'static str,
    /// Warm-only mode: lookup, probe and train as usual, but never deliver
    /// a prediction at rename (sampled-simulation warmup windows).
    warm_only: bool,
}

impl<A: AddressPredictor> Dlvp<A> {
    /// Builds the scheme around `predictor`.
    pub fn new(cfg: DlvpConfig, predictor: A) -> Dlvp<A> {
        let name = predictor.name();
        Dlvp {
            lscd: Lscd::paper_default(),
            paq: Paq::new(cfg.paq_entries, cfg.paq_window),
            pending: HashMap::new(),
            counters: DlvpCounters::default(),
            per_pc: BTreeMap::new(),
            cfg,
            predictor,
            name,
            warm_only: false,
        }
    }

    /// The underlying address predictor.
    pub fn predictor(&self) -> &A {
        &self.predictor
    }

    /// Scheme counters.
    pub fn counters(&self) -> DlvpCounters {
        self.counters
    }

    /// PAQ statistics (allocation/drop rates; paper: < 0.1% dropped).
    pub fn paq_stats(&self) -> crate::paq::PaqStats {
        self.paq.stats()
    }

    /// LSCD (inserts, suppressions).
    pub fn lscd_counters(&self) -> (u64, u64) {
        self.lscd.counters()
    }

    /// Per-load-PC predictor outcomes, keyed by architectural PC.
    pub fn per_pc_outcomes(&self) -> &BTreeMap<u64, PcOutcome> {
        &self.per_pc
    }
}

impl<A: AddressPredictor> VpScheme for Dlvp<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_fetch(&mut self, slot: &FetchSlot, ctx: &mut FetchCtx<'_>) {
        if !slot.inst.is_load() {
            return;
        }
        // ① address prediction in the first fetch stage.
        self.predictor.note_load(slot.pc);
        if slot.inst.is_ordered() {
            // §3.2.2 memory consistency: "address prediction is not used
            // with memory ordering instructions, atomic and exclusive
            // memory accesses."
            if ctx.sink.enabled() {
                ctx.sink.emit(ObsEvent::PredictFiltered {
                    seq: slot.seq,
                    pc: slot.pc,
                    cycle: ctx.cycle,
                    reason: FilterReason::Ordered,
                });
            }
            self.pending.insert(
                slot.seq,
                Pending {
                    train_ctx: None,
                    prediction: None,
                },
            );
            return;
        }
        if self.cfg.use_lscd && self.lscd.filters(slot.pc) {
            self.counters.lscd_suppressed += 1;
            self.per_pc.entry(slot.pc).or_default().lscd_suppressed += 1;
            if ctx.sink.enabled() {
                ctx.sink.emit(ObsEvent::PredictFiltered {
                    seq: slot.seq,
                    pc: slot.pc,
                    cycle: ctx.cycle,
                    reason: FilterReason::Lscd,
                });
            }
            self.pending.insert(
                slot.seq,
                Pending {
                    train_ctx: None,
                    prediction: None,
                },
            );
            return;
        }
        if slot.load_index_in_group >= self.cfg.max_per_group {
            // Beyond the per-group prediction ports (paper: <2% of groups).
            if ctx.sink.enabled() {
                ctx.sink.emit(ObsEvent::PredictFiltered {
                    seq: slot.seq,
                    pc: slot.pc,
                    cycle: ctx.cycle,
                    reason: FilterReason::PortLimit,
                });
            }
            self.pending.insert(
                slot.seq,
                Pending {
                    train_ctx: None,
                    prediction: None,
                },
            );
            return;
        }
        // The FGA-based proxy PC (§3.1.1: "load PC and load PC plus one").
        let proxy_pc = slot.fga + 4 * slot.load_index_in_group as u64;
        let (pred, train_ctx) = self.predictor.lookup(proxy_pc);
        if ctx.sink.enabled() {
            ctx.sink.emit(ObsEvent::AptLookup {
                seq: slot.seq,
                pc: slot.pc,
                proxy_pc,
                cycle: ctx.cycle,
                path_sig: self.predictor.path_signature(),
                predicted: pred.is_some(),
                confidence: pred.map_or(0, |p| p.confidence),
                addr: pred.map_or(0, |p| p.addr),
            });
        }
        let outcome = self.per_pc.entry(slot.pc).or_default();
        outcome.attempts += 1;
        let mut probed = None;
        if let Some(p) = pred {
            outcome.predictions += 1;
            self.counters.addr_predictions += 1;
            // ② deposit in the PAQ; ③ probe on an LS-lane bubble.
            let alloc = ctx.cycle + 2; // predict + transfer to the backend
            if self.paq.alloc(crate::paq::PaqEntry {
                seq: slot.seq,
                addr: p.addr,
                size_code: p.size_code,
                way: p.way,
                alloc_cycle: alloc,
            }) {
                if ctx.sink.enabled() {
                    ctx.sink.emit(ObsEvent::PaqEnqueue {
                        seq: slot.seq,
                        addr: p.addr,
                        cycle: alloc,
                    });
                }
                match ctx.lanes.book_ls_bubble(alloc, alloc + self.paq.window()) {
                    Some(probe_cycle) => {
                        let sink = &mut ctx.sink;
                        if let Some(entry) = self.paq.pop_probed_with(probe_cycle, |e| {
                            if sink.enabled() {
                                sink.emit(ObsEvent::PaqDrop {
                                    seq: e.seq,
                                    cycle: probe_cycle,
                                    enqueued: e.alloc_cycle,
                                });
                            }
                        }) {
                            let hint = if self.cfg.way_prediction {
                                entry.way.map(|w| w as usize)
                            } else {
                                None
                            };
                            let outcome = ctx.mem.probe_l1d_traced(
                                entry.seq,
                                probe_cycle,
                                entry.addr,
                                hint,
                                &mut ctx.sink,
                            );
                            if outcome.way_mispredict {
                                // The one-way probe read the wrong way: no
                                // data.
                                self.counters.way_mispredicts += 1;
                            } else if outcome.hit {
                                // ④ value to the VPE (1-cycle read + 1-cycle
                                // transfer).
                                probed = Some(ProbedPrediction {
                                    addr: entry.addr,
                                    size_code: entry.size_code,
                                    probe_cycle,
                                    value_ready: probe_cycle + 2,
                                });
                            } else if self.cfg.prefetch_on_miss {
                                // ⑤ prefetch the missing block.
                                ctx.mem.dlvp_prefetch(entry.addr);
                                self.counters.prefetches += 1;
                                if ctx.sink.enabled() {
                                    ctx.sink.emit(ObsEvent::Prefetch {
                                        seq: entry.seq,
                                        addr: entry.addr,
                                        cycle: probe_cycle,
                                    });
                                }
                            }
                        }
                    }
                    None => {
                        // No LS bubble inside the window: the entry expires.
                        let deadline = alloc + self.paq.window() + 1;
                        let sink = &mut ctx.sink;
                        self.paq.drop_expired_with(deadline, |e| {
                            if sink.enabled() {
                                sink.emit(ObsEvent::PaqDrop {
                                    seq: e.seq,
                                    cycle: deadline,
                                    enqueued: e.alloc_cycle,
                                });
                            }
                        });
                    }
                }
            } else if ctx.sink.enabled() {
                ctx.sink.emit(ObsEvent::PaqOverflow {
                    seq: slot.seq,
                    cycle: alloc,
                });
            }
        }
        self.pending.insert(
            slot.seq,
            Pending {
                train_ctx: Some(train_ctx),
                prediction: probed,
            },
        );
    }

    fn prediction_at_rename(&mut self, seq: u64, rename_cycle: u64) -> Option<RenamePrediction> {
        if self.warm_only {
            return None;
        }
        let p = self.pending.get(&seq)?.prediction?;
        if p.value_ready <= rename_cycle {
            Some(RenamePrediction { chunks: 1 })
        } else {
            self.counters.late_values += 1;
            None
        }
    }

    fn set_warm_only(&mut self, warm: bool) {
        self.warm_only = warm;
    }

    fn on_execute(&mut self, info: &ExecInfo<'_>) -> VpVerdict {
        if !info.inst.is_load() {
            return VpVerdict::NONE;
        }
        let Some(pending) = self.pending.remove(&info.seq) else {
            return VpVerdict::NONE;
        };
        // ⑥ always train the address predictor (unless LSCD-suppressed).
        if let Some(ctx) = pending.train_ctx {
            let bytes = info.inst.mem_bytes().unwrap_or(8);
            self.predictor
                .train(ctx, info.eff_addr, size_code_for(bytes), info.l1_way);
        }
        let Some(p) = pending.prediction else {
            return VpVerdict::NONE;
        };
        if !info.was_injected {
            return VpVerdict::NONE;
        }
        let bytes = info.inst.mem_bytes().unwrap_or(8);
        let addr_correct = p.addr == info.eff_addr && p.size_code == size_code_for(bytes);
        // The probe read the cache at `probe_cycle`; any older store that
        // became visible later makes the probed value stale (§3.2.2).
        let stale = info
            .conflicting_store_commit
            .is_some_and(|commit| commit > p.probe_cycle);
        let correct = addr_correct && !stale;
        if addr_correct && stale {
            self.counters.stale_value_mispredicts += 1;
            self.per_pc.entry(info.pc).or_default().stale_mispredicts += 1;
            if self.cfg.use_lscd {
                self.lscd.insert(info.pc);
            }
        } else if self.cfg.inject_lscd_bug && self.cfg.use_lscd && addr_correct {
            // Injected bug: capture cleanly-validated loads too, so even
            // statically conflict-free PCs end up suppressed (R7 bait).
            self.lscd.insert(info.pc);
        } else if !addr_correct {
            self.counters.addr_mispredicts += 1;
            self.per_pc.entry(info.pc).or_default().addr_mispredicts += 1;
        }
        VpVerdict {
            predicted: true,
            correct,
        }
    }

    fn extra_counters(&self) -> Vec<(&'static str, f64)> {
        let c = self.counters;
        let paq = self.paq.stats();
        vec![
            ("addr_predictions", c.addr_predictions as f64),
            ("lscd_suppressed", c.lscd_suppressed as f64),
            ("way_mispredicts", c.way_mispredicts as f64),
            ("stale_value_mispredicts", c.stale_value_mispredicts as f64),
            ("addr_mispredicts", c.addr_mispredicts as f64),
            ("late_values", c.late_values as f64),
            ("prefetches", c.prefetches as f64),
            ("paq_drop_rate", self.paq.drop_rate()),
            ("paq_allocated", paq.allocated as f64),
        ]
    }

    fn storage_bits(&self) -> u64 {
        self.predictor.storage_bits()
    }

    fn activity(&self) -> (u64, u64) {
        let a = self.predictor.activity();
        (a.reads, a.writes)
    }
}

/// DLVP with the paper's PAP predictor and default knobs.
pub fn dlvp_default() -> Dlvp<crate::Pap> {
    Dlvp::new(DlvpConfig::default(), crate::Pap::paper_default())
}

/// The paper's "CAP" value-prediction configuration: DLVP's machinery with
/// the CAP address predictor at confidence 24 (§5.2.3).
pub fn dlvp_with_cap() -> Dlvp<crate::Cap> {
    Dlvp::new(DlvpConfig::default(), crate::Cap::with_confidence(24))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_uarch::{simulate, CoreConfig, NoVp, RecoveryMode};

    fn fir_trace(n: u64) -> lvp_trace::Trace {
        lvp_workloads::by_name("aifirf").expect("workload").trace(n)
    }

    #[test]
    fn dlvp_speeds_up_address_stable_kernel() {
        let t = fir_trace(60_000);
        let base = simulate(&t, NoVp);
        let d = simulate(&t, dlvp_default());
        let speedup = d.speedup_over(&base);
        assert!(speedup > 1.0, "DLVP should win on aifirf, got {speedup}");
        assert!(d.coverage() > 0.2, "coverage {}", d.coverage());
        assert!(d.accuracy() > 0.95, "accuracy {}", d.accuracy());
    }

    #[test]
    fn dlvp_does_not_hurt_pointer_chase() {
        let t = lvp_workloads::by_name("mcf").unwrap().trace(40_000);
        let base = simulate(&t, NoVp);
        let d = simulate(&t, dlvp_default());
        let speedup = d.speedup_over(&base);
        assert!(
            speedup > 0.97,
            "DLVP must be near-neutral on mcf, got {speedup}"
        );
    }

    #[test]
    fn lscd_suppresses_inflight_conflict_loads() {
        // libquantum's global phase is read+written every short iteration —
        // the in-flight-store hazard LSCD exists for.
        let t = lvp_workloads::by_name("libquantum").unwrap().trace(60_000);
        let core = lvp_uarch::Core::new(CoreConfig::default(), dlvp_default());
        let (stats, scheme) = core.run_with_scheme(&t);
        let (inserts, suppressions) = scheme.lscd_counters();
        assert!(inserts > 0, "conflicting loads must be captured");
        assert!(suppressions > 0, "future instances must be filtered");
        assert!(
            stats.accuracy() > 0.9,
            "LSCD keeps accuracy high: {}",
            stats.accuracy()
        );
    }

    #[test]
    fn disabling_lscd_increases_value_mispredictions() {
        let t = lvp_workloads::by_name("libquantum").unwrap().trace(60_000);
        let with = simulate(&t, dlvp_default());
        let without = simulate(
            &t,
            Dlvp::new(
                DlvpConfig {
                    use_lscd: false,
                    ..DlvpConfig::default()
                },
                crate::Pap::paper_default(),
            ),
        );
        assert!(
            without.vp_flushes > with.vp_flushes,
            "LSCD must remove flushes: with={} without={}",
            with.vp_flushes,
            without.vp_flushes
        );
    }

    #[test]
    fn paq_drop_rate_is_tiny() {
        let t = fir_trace(60_000);
        let core = lvp_uarch::Core::new(CoreConfig::default(), dlvp_default());
        let (_, scheme) = core.run_with_scheme(&t);
        assert!(
            scheme.paq_stats().allocated > 100,
            "PAQ must be exercised: {:?}",
            scheme.paq_stats()
        );
        assert!(scheme.paq_stats().dropped as f64 / scheme.paq_stats().allocated as f64 > -1.0);
        assert!(
            scheme.paq_stats().dropped * 50 < scheme.paq_stats().allocated,
            "drop rate should be small (paper: <0.1%), got {:?}",
            scheme.paq_stats()
        );
    }

    #[test]
    fn oracle_replay_never_flushes() {
        let t = lvp_workloads::by_name("libquantum").unwrap().trace(40_000);
        let cfg = CoreConfig {
            recovery: RecoveryMode::OracleReplay,
            ..CoreConfig::default()
        };
        let s = lvp_uarch::Core::new(
            cfg,
            Dlvp::new(
                DlvpConfig {
                    use_lscd: false,
                    ..DlvpConfig::default()
                },
                crate::Pap::paper_default(),
            ),
        )
        .run(&t);
        assert_eq!(s.vp_flushes, 0);
    }

    #[test]
    fn way_mispredictions_are_rare() {
        let t = fir_trace(60_000);
        let core = lvp_uarch::Core::new(CoreConfig::default(), dlvp_default());
        let (stats, scheme) = core.run_with_scheme(&t);
        let c = scheme.counters();
        assert!(
            (c.way_mispredicts as f64) < 0.02 * stats.loads as f64,
            "way mispredictions almost never happen (paper §3.2.2): {c:?}"
        );
    }

    #[test]
    fn ordered_loads_are_never_predicted() {
        // A tight loop whose only load is a load-acquire at a fixed address:
        // trivially predictable, but barred by the consistency rule.
        use lvp_isa::{Asm, Reg};
        let mut a = Asm::new(0x1000);
        a.data_u64(0x8000, &[5]);
        a.mov(Reg::X0, 0x8000);
        let top = a.here();
        a.ldar(Reg::X1, Reg::X0);
        a.add(Reg::X2, Reg::X2, Reg::X1);
        a.b(top);
        let t = lvp_emu::Emulator::new(a.build()).run(10_000).trace;
        let s = simulate(&t, dlvp_default());
        assert!(s.loads > 3_000);
        assert_eq!(
            s.vp_predicted, 0,
            "LDAR must not be value-predicted (§3.2.2)"
        );
        let v = simulate(&t, crate::Vtage::paper_default());
        assert_eq!(v.vp_predicted, 0, "consistency rule applies to VTAGE too");
    }

    #[test]
    fn cap_variant_runs() {
        let t = fir_trace(30_000);
        let base = simulate(&t, NoVp);
        let c = simulate(&t, dlvp_with_cap());
        assert!(c.speedup_over(&base) > 0.9);
    }
}
