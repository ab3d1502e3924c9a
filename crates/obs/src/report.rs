//! The compact per-load-PC lifecycle report: a deterministic join of the
//! event stream into "what happened to each static load", plus run-level
//! totals and the fixed-bucket histograms the tentpole metrics call for.
//!
//! The report's `injected`/`correct`/`conflict_squashes` columns are
//! counted from [`ObsEvent::Verify`] events — the exact event the core
//! emits where it bumps `SimStats::per_pc` — so the two artifacts reconcile
//! count-for-count whenever the ring did not overwrite (`overwritten == 0`).

use crate::event::{FilterReason, ObsEvent, RedirectCause, VerifyOutcome};
use crate::metrics::{Histogram, MetricsRegistry};
use lvp_json::{json_struct, pc_map, Json, ToJson};
use std::collections::{BTreeMap, HashMap};

/// Identity of the run a report describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Workload name (e.g. `aifirf`).
    pub workload: String,
    /// Value-prediction scheme name (e.g. `dlvp`).
    pub scheme: String,
    /// Instruction budget the run was capped at.
    pub budget: u64,
}

json_struct!(RunMeta {
    workload,
    scheme,
    budget,
});

/// Lifecycle counters for one static load PC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcLifecycle {
    /// Committed executions (from retire events).
    pub executions: u64,
    /// APT lookups attempted at fetch.
    pub apt_lookups: u64,
    /// Lookups that returned a confident prediction.
    pub apt_predictions: u64,
    /// Filtered before lookup: ordered access.
    pub filtered_ordered: u64,
    /// Filtered before lookup: LSCD conflict filter.
    pub filtered_lscd: u64,
    /// Filtered before lookup: per-group port limit.
    pub filtered_port: u64,
    /// Predicted addresses that entered the PAQ.
    pub paq_enqueued: u64,
    /// Predictions discarded because the PAQ was full.
    pub paq_overflowed: u64,
    /// PAQ entries dropped after the N-cycle window.
    pub paq_dropped: u64,
    /// Opportunistic L1 probes issued.
    pub probes: u64,
    /// Probes that hit in the L1D.
    pub probe_hits: u64,
    /// Probes whose predicted way was wrong.
    pub way_mispredicts: u64,
    /// Prefetches issued on probe misses.
    pub prefetches: u64,
    /// Probed values that arrived too late for rename.
    pub late: u64,
    /// Predicted values injected and validated (matches
    /// `SimStats::per_pc[pc].injected`).
    pub injected: u64,
    /// Injections validated correct (matches `SimStats::per_pc[pc].correct`).
    pub correct: u64,
    /// Injections squashed by an in-flight conflicting store (matches
    /// `SimStats::per_pc[pc].conflict_squashes`).
    pub conflict_squashes: u64,
}

json_struct!(PcLifecycle {
    executions,
    apt_lookups,
    apt_predictions,
    filtered_ordered,
    filtered_lscd,
    filtered_port,
    paq_enqueued,
    paq_overflowed,
    paq_dropped,
    probes,
    probe_hits,
    way_mispredicts,
    prefetches,
    late,
    injected,
    correct,
    conflict_squashes,
});

/// Per-seq scratch used while joining the linear event stream.
#[derive(Debug, Clone, Copy, Default)]
struct Scratch {
    pc: Option<u64>,
    confidence: Option<u8>,
    enqueue_cycle: Option<u64>,
    probe_cycle: Option<u64>,
    probe_hit: bool,
    injected: bool,
    blocked: bool,
}

/// The joined lifecycle report.
#[derive(Debug, Clone)]
pub struct LifecycleReport {
    meta: RunMeta,
    /// Events the ring overwrote before the join ran. When non-zero the
    /// per-PC columns are lower bounds, not exact counts.
    overwritten: u64,
    recorded: u64,
    per_pc: BTreeMap<u64, PcLifecycle>,
    metrics: MetricsRegistry,
}

impl LifecycleReport {
    /// Joins an oldest-first event stream into a report. `overwritten` is
    /// the count of events the recording ring discarded (from
    /// [`crate::EventRing::overwritten`]).
    pub fn build(meta: RunMeta, events: &[ObsEvent], overwritten: u64) -> LifecycleReport {
        let mut per_pc: BTreeMap<u64, PcLifecycle> = BTreeMap::new();
        let mut scratch: HashMap<u64, Scratch> = HashMap::new();
        let mut metrics = MetricsRegistry::new();
        metrics.register(Histogram::new(
            "confidence_at_injection",
            &[0, 1, 2, 3, 4, 8, 16, 32, 64, 128],
        ));
        metrics.register(Histogram::new(
            "paq_residency_cycles",
            &[0, 1, 2, 3, 4, 5, 6, 7, 8],
        ));
        metrics.register(Histogram::pow2("predict_to_rename_slack", 8));
        metrics.register(Histogram::pow2("rob_occupancy_at_rename", 10));
        metrics.register(Histogram::pow2("iq_occupancy_at_rename", 10));
        metrics.register(Histogram::pow2("ldq_occupancy_at_rename", 10));
        metrics.register(Histogram::pow2("stq_occupancy_at_rename", 10));
        metrics.register(Histogram::pow2("fetch_to_commit_cycles", 12));

        // Per-PC attribution needs the seq→pc binding from a pc-carrying
        // event; the overwriting ring can lose it, so unattributable events
        // still land in a totals counter rather than vanishing.
        macro_rules! at_pc {
            ($sc:expr, $metrics:expr, $per_pc:expr, $field:ident) => {
                match $sc.pc {
                    Some(pc) => $per_pc.entry(pc).or_default().$field += 1,
                    None => $metrics.add("unattributed_events", 1),
                }
            };
        }

        for event in events {
            if let Some(seq) = event.seq() {
                let sc = scratch.entry(seq).or_default();
                match *event {
                    ObsEvent::AptLookup {
                        pc,
                        predicted,
                        confidence,
                        ..
                    } => {
                        sc.pc = Some(pc);
                        let row = per_pc.entry(pc).or_default();
                        row.apt_lookups += 1;
                        if predicted {
                            row.apt_predictions += 1;
                            sc.confidence = Some(confidence);
                        }
                        metrics.add("apt_lookups", 1);
                        if predicted {
                            metrics.add("apt_predictions", 1);
                        }
                    }
                    ObsEvent::PredictFiltered { pc, reason, .. } => {
                        sc.pc = Some(pc);
                        let row = per_pc.entry(pc).or_default();
                        match reason {
                            FilterReason::Ordered => row.filtered_ordered += 1,
                            FilterReason::Lscd => row.filtered_lscd += 1,
                            FilterReason::PortLimit => row.filtered_port += 1,
                        }
                        metrics.add(
                            match reason {
                                FilterReason::Ordered => "filtered_ordered",
                                FilterReason::Lscd => "filtered_lscd",
                                FilterReason::PortLimit => "filtered_port",
                            },
                            1,
                        );
                    }
                    ObsEvent::PaqEnqueue { cycle, .. } => {
                        sc.enqueue_cycle = Some(cycle);
                        at_pc!(sc, metrics, per_pc, paq_enqueued);
                        metrics.add("paq_enqueues", 1);
                    }
                    ObsEvent::PaqOverflow { .. } => {
                        at_pc!(sc, metrics, per_pc, paq_overflowed);
                        metrics.add("paq_overflows", 1);
                    }
                    ObsEvent::PaqDrop { .. } => {
                        at_pc!(sc, metrics, per_pc, paq_dropped);
                        metrics.add("paq_drops", 1);
                    }
                    ObsEvent::L1Probe {
                        cycle,
                        hit,
                        way_mispredict,
                        ..
                    } => {
                        sc.probe_cycle = Some(cycle);
                        sc.probe_hit = hit;
                        at_pc!(sc, metrics, per_pc, probes);
                        metrics.add("l1_probes", 1);
                        if hit {
                            at_pc!(sc, metrics, per_pc, probe_hits);
                            metrics.add("l1_probe_hits", 1);
                        }
                        if way_mispredict {
                            at_pc!(sc, metrics, per_pc, way_mispredicts);
                            metrics.add("way_mispredicts", 1);
                        }
                        if let Some(enq) = sc.enqueue_cycle {
                            if let Some(h) = metrics.histogram_mut("paq_residency_cycles") {
                                h.record(cycle.saturating_sub(enq));
                            }
                        }
                    }
                    ObsEvent::Prefetch { .. } => {
                        at_pc!(sc, metrics, per_pc, prefetches);
                        metrics.add("prefetches", 1);
                    }
                    ObsEvent::MdpDelay { pc, .. } => {
                        sc.pc = Some(pc);
                        metrics.add("mdp_delays", 1);
                    }
                    ObsEvent::RenameInject { pc, cycle, .. } => {
                        sc.pc = Some(pc);
                        sc.injected = true;
                        metrics.add("rename_injects", 1);
                        if let Some(c) = sc.confidence {
                            if let Some(h) = metrics.histogram_mut("confidence_at_injection") {
                                h.record(c as u64);
                            }
                        }
                        if let Some(probe) = sc.probe_cycle {
                            if let Some(h) = metrics.histogram_mut("predict_to_rename_slack") {
                                h.record(cycle.saturating_sub(probe));
                            }
                        }
                    }
                    ObsEvent::InjectBlocked { pc, reason, .. } => {
                        sc.pc = Some(pc);
                        sc.blocked = true;
                        metrics.add(
                            match reason {
                                crate::event::InjectBlock::PvtFull => "inject_blocked_pvt_full",
                                crate::event::InjectBlock::PortLimit => "inject_blocked_port",
                            },
                            1,
                        );
                    }
                    ObsEvent::Verify {
                        pc,
                        outcome,
                        conflict,
                        is_load,
                        ..
                    } => {
                        sc.pc = Some(pc);
                        metrics.add(
                            match outcome {
                                VerifyOutcome::Correct => "verify_correct",
                                VerifyOutcome::Flush => "verify_flush",
                                VerifyOutcome::Replay => "verify_replay",
                            },
                            1,
                        );
                        if is_load {
                            let row = per_pc.entry(pc).or_default();
                            row.injected += 1;
                            if outcome == VerifyOutcome::Correct {
                                row.correct += 1;
                            } else if conflict {
                                row.conflict_squashes += 1;
                                metrics.add("conflict_squashes", 1);
                            }
                        }
                    }
                    ObsEvent::Retire {
                        pc,
                        is_load,
                        fetch,
                        commit,
                        rob,
                        iq,
                        ldq,
                        stq,
                        ..
                    } => {
                        sc.pc = Some(pc);
                        metrics.add("retired", 1);
                        if is_load {
                            per_pc.entry(pc).or_default().executions += 1;
                            metrics.add("retired_loads", 1);
                        }
                        for (name, v) in [
                            ("rob_occupancy_at_rename", rob),
                            ("iq_occupancy_at_rename", iq),
                            ("ldq_occupancy_at_rename", ldq),
                            ("stq_occupancy_at_rename", stq),
                        ] {
                            if let Some(h) = metrics.histogram_mut(name) {
                                h.record(v as u64);
                            }
                        }
                        if let Some(h) = metrics.histogram_mut("fetch_to_commit_cycles") {
                            h.record(commit.saturating_sub(fetch));
                        }
                    }
                    ObsEvent::TierTransition { .. } => {
                        metrics.add("tier_transitions", 1);
                    }
                    ObsEvent::Redirect { .. } | ObsEvent::StoreAccess { .. } => {
                        unreachable!("seq-less event")
                    }
                }
            } else {
                // Seq-less events: counters are created lazily, so runs that
                // never emit them keep their exact report bytes.
                match *event {
                    ObsEvent::Redirect { cause, .. } => metrics.add(
                        match cause {
                            RedirectCause::Branch => "redirect_branch",
                            RedirectCause::OrderingViolation => "redirect_ordering",
                            RedirectCause::ValueMisprediction => "redirect_value",
                        },
                        1,
                    ),
                    ObsEvent::StoreAccess { op, .. } => metrics.add(
                        match op {
                            crate::event::StoreOp::Hit => "store_hits",
                            crate::event::StoreOp::Miss => "store_misses",
                            crate::event::StoreOp::Write => "store_writes",
                            crate::event::StoreOp::Dedup => "store_deduped",
                        },
                        1,
                    ),
                    _ => {}
                }
            }
        }

        // "Late" = the probe hit but the value never reached rename and no
        // structural block was reported: the probe simply completed too late.
        // Order-insensitive accumulation, so HashMap iteration is safe here.
        for sc in scratch.values() {
            if sc.probe_hit && !sc.injected && !sc.blocked {
                if let Some(pc) = sc.pc {
                    per_pc.entry(pc).or_default().late += 1;
                    metrics.add("late_values", 1);
                }
            }
        }

        LifecycleReport {
            meta,
            overwritten,
            recorded: events.len() as u64,
            per_pc,
            metrics,
        }
    }

    /// Run identity.
    pub fn meta(&self) -> &RunMeta {
        &self.meta
    }

    /// Events lost to ring overwriting before the join.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Events the join consumed.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Per-static-load lifecycle rows, ordered by PC.
    pub fn per_pc(&self) -> &BTreeMap<u64, PcLifecycle> {
        &self.per_pc
    }

    /// Run-level totals and histograms.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Cross-checks this report against the simulator's per-PC injection
    /// counters: both count injections at the same verify site, so with a
    /// lossless ring every `(injected, correct, conflict_squashes)` triple
    /// must match exactly. `stats_per_pc` supplies the simulator side
    /// (e.g. from `SimStats::per_pc`); PCs whose triple is all-zero are
    /// ignored on both sides. Returns the number of reconciled PCs, or a
    /// deterministic description of every disagreeing PC.
    pub fn reconcile_injections<I>(&self, stats_per_pc: I) -> Result<u64, String>
    where
        I: IntoIterator<Item = (u64, (u64, u64, u64))>,
    {
        let from_stats: BTreeMap<u64, (u64, u64, u64)> = stats_per_pc
            .into_iter()
            .filter(|&(_, (i, c, s))| i + c + s > 0)
            .collect();
        let mut from_report: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
        for (&pc, r) in &self.per_pc {
            if r.injected + r.correct + r.conflict_squashes > 0 {
                from_report.insert(pc, (r.injected, r.correct, r.conflict_squashes));
            }
        }
        if from_stats == from_report {
            return Ok(from_stats.len() as u64);
        }
        let mut msg = String::from("per-PC injection counts disagree with SimStats::per_pc:\n");
        for pc in from_stats.keys().chain(from_report.keys()) {
            let s = from_stats.get(pc);
            let r = from_report.get(pc);
            if s != r {
                msg.push_str(&format!(
                    "  pc {pc:#x}: stats {s:?} vs report {r:?} (injected, correct, conflict_squashes)\n"
                ));
            }
        }
        Err(msg)
    }
}

impl ToJson for LifecycleReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("meta", self.meta.to_json()),
            (
                "events",
                Json::obj([
                    ("recorded", self.recorded.to_json()),
                    ("overwritten", self.overwritten.to_json()),
                ]),
            ),
            ("totals", self.metrics.to_json()),
            ("per_pc", pc_map::to_json(&self.per_pc)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::InjectBlock;

    fn meta() -> RunMeta {
        RunMeta {
            workload: "synthetic".to_string(),
            scheme: "dlvp".to_string(),
            budget: 100,
        }
    }

    /// One fully-successful load lifecycle plus one filtered load.
    fn sample_events() -> Vec<ObsEvent> {
        vec![
            ObsEvent::AptLookup {
                seq: 1,
                pc: 0x4000,
                proxy_pc: 0x4000,
                cycle: 10,
                path_sig: 0xabc,
                predicted: true,
                confidence: 3,
                addr: 0x8000,
            },
            ObsEvent::PaqEnqueue {
                seq: 1,
                addr: 0x8000,
                cycle: 12,
            },
            ObsEvent::L1Probe {
                seq: 1,
                addr: 0x8000,
                cycle: 14,
                hit: true,
                way_mispredict: false,
                tlb_miss: false,
            },
            ObsEvent::RenameInject {
                seq: 1,
                pc: 0x4000,
                cycle: 18,
            },
            ObsEvent::Verify {
                seq: 1,
                pc: 0x4000,
                cycle: 30,
                outcome: VerifyOutcome::Correct,
                conflict: false,
                is_load: true,
            },
            ObsEvent::Retire {
                seq: 1,
                pc: 0x4000,
                is_load: true,
                is_store: false,
                eff_addr: 0x8000,
                fetch: 10,
                rename: 18,
                issue: 20,
                execute: 24,
                complete: 28,
                commit: 34,
                rob: 4,
                iq: 2,
                ldq: 1,
                stq: 0,
            },
            ObsEvent::PredictFiltered {
                seq: 2,
                pc: 0x4008,
                cycle: 11,
                reason: FilterReason::Lscd,
            },
            ObsEvent::Redirect {
                cycle: 40,
                cause: RedirectCause::Branch,
            },
        ]
    }

    #[test]
    fn joins_one_lifecycle_end_to_end() {
        let r = LifecycleReport::build(meta(), &sample_events(), 0);
        let row = r.per_pc()[&0x4000];
        assert_eq!(row.executions, 1);
        assert_eq!(row.apt_lookups, 1);
        assert_eq!(row.apt_predictions, 1);
        assert_eq!(row.paq_enqueued, 1);
        assert_eq!(row.probes, 1);
        assert_eq!(row.probe_hits, 1);
        assert_eq!(row.injected, 1);
        assert_eq!(row.correct, 1);
        assert_eq!(row.late, 0, "injected loads are not late");
        let filtered = r.per_pc()[&0x4008];
        assert_eq!(filtered.filtered_lscd, 1);
        assert_eq!(r.metrics().counter("redirect_branch"), 1);
        assert_eq!(r.metrics().counter("verify_correct"), 1);
        let conf = r.metrics().histogram("confidence_at_injection").expect("h");
        assert_eq!(conf.samples(), 1);
        let res = r.metrics().histogram("paq_residency_cycles").expect("h");
        assert_eq!(res.samples(), 1);
        assert_eq!(
            res.counts()[2],
            1,
            "residency 14-12=2 lands in bucket [2,3)"
        );
    }

    #[test]
    fn probe_hit_without_injection_is_late_unless_blocked() {
        let mut ev = vec![
            ObsEvent::AptLookup {
                seq: 5,
                pc: 0x5000,
                proxy_pc: 0x5000,
                cycle: 1,
                path_sig: 0,
                predicted: true,
                confidence: 3,
                addr: 0x10,
            },
            ObsEvent::L1Probe {
                seq: 5,
                addr: 0x10,
                cycle: 3,
                hit: true,
                way_mispredict: false,
                tlb_miss: false,
            },
        ];
        let r = LifecycleReport::build(meta(), &ev, 0);
        assert_eq!(r.per_pc()[&0x5000].late, 1);

        ev.push(ObsEvent::InjectBlocked {
            seq: 5,
            pc: 0x5000,
            cycle: 5,
            reason: InjectBlock::PvtFull,
        });
        let r = LifecycleReport::build(meta(), &ev, 0);
        assert_eq!(r.per_pc()[&0x5000].late, 0, "blocked is not late");
        assert_eq!(r.metrics().counter("inject_blocked_pvt_full"), 1);
    }

    #[test]
    fn json_is_deterministic_and_round_trips() {
        let a = LifecycleReport::build(meta(), &sample_events(), 3).to_json();
        let b = LifecycleReport::build(meta(), &sample_events(), 3).to_json();
        assert_eq!(a.pretty(), b.pretty());
        assert_eq!(
            a.get("events").and_then(|e| e.get("overwritten")),
            Some(&Json::U64(3))
        );
        assert_eq!(Json::parse(&a.pretty()).expect("parse"), a);
    }

    #[test]
    fn orphan_paq_events_are_counted_not_attributed() {
        // A ring that overwrote the AptLookup leaves the PAQ event with no
        // pc binding; it must show up in totals, not vanish or panic.
        let ev = [ObsEvent::PaqEnqueue {
            seq: 9,
            addr: 0x20,
            cycle: 2,
        }];
        let r = LifecycleReport::build(meta(), &ev, 10);
        assert!(r.per_pc().is_empty());
        assert_eq!(r.metrics().counter("paq_enqueues"), 1);
        assert_eq!(r.metrics().counter("unattributed_events"), 1);
        assert_eq!(r.overwritten(), 10);
    }

    #[test]
    fn store_access_metrics_are_created_lazily() {
        use crate::event::StoreOp;

        // Store-disabled runs emit no StoreAccess events, so their report
        // must not even mention the store counters — exact bytes preserved.
        let without = LifecycleReport::build(meta(), &sample_events(), 0).to_json();
        assert!(!without.pretty().contains("store_"));

        let mut ev = sample_events();
        for op in [StoreOp::Miss, StoreOp::Write, StoreOp::Hit, StoreOp::Dedup] {
            ev.push(ObsEvent::StoreAccess { cycle: 50, op });
        }
        ev.push(ObsEvent::StoreAccess {
            cycle: 51,
            op: StoreOp::Hit,
        });
        let r = LifecycleReport::build(meta(), &ev, 0);
        assert_eq!(r.metrics().counter("store_hits"), 2);
        assert_eq!(r.metrics().counter("store_misses"), 1);
        assert_eq!(r.metrics().counter("store_writes"), 1);
        assert_eq!(r.metrics().counter("store_deduped"), 1);
        // Lifecycle joins are untouched by the seq-less store events.
        assert_eq!(r.per_pc()[&0x4000].injected, 1);
    }
}
