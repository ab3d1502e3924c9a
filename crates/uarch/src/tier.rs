//! Cheap execution tiers and the fast-forward + sampled driver.
//!
//! The cycle-level [`Core`] is one way to consume a trace; it
//! is also by far the most expensive. The cheaper tiers turn a trace into
//! [`SimStats`] at lower timing fidelity:
//!
//! * [`FunctionalTier`] — atomic execution: architectural counters only,
//!   one "cycle" per instruction. The speed ceiling of the simulator.
//! * [`SimpleTier`] — a 1-cycle-per-instruction in-order timing model that
//!   still charges real memory-hierarchy latencies for loads and stores.
//!
//! Both only promise that architectural counters (instructions, loads,
//! stores, branches) reflect the trace exactly.
//!
//! [`run_sampled`] combines the tiers SMARTS-style: skip a fast-forward
//! prefix functionally, then alternate per-period `warmup` windows (the
//! scheme trains through [`VpScheme::set_warm_only`] but injects nothing,
//! stats discarded) with `detail` windows whose stats accumulate, skipping
//! the remainder of each period. Sampling never changes any unsampled
//! artifact: the driver is only entered when a
//! [`SampleSpec`] is present.

use crate::config::CoreConfig;
use crate::core::Core;
use crate::simconfig::SampleSpec;
use crate::stats::{SamplingStats, SimStats};
use crate::vp::VpScheme;
use lvp_mem::MemoryHierarchy;
use lvp_obs::{EventSink, ObsEvent, TierKind};
use lvp_trace::{Trace, TraceRecord};

/// Burns host time without touching simulated state — the same wall-clock
/// tax as [`Core::set_host_spin`], used by `bench --inject-slowdown` to
/// prove the throughput gate bites on non-OoO tiers too.
fn host_spin(iters: u32) {
    if iters == 0 {
        return;
    }
    let mut x = 0u64;
    for i in 0..iters as u64 {
        x = std::hint::black_box(x ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    std::hint::black_box(x);
}

/// Counts the record into the architectural counters shared by every tier.
fn count_arch(stats: &mut SimStats, rec: &TraceRecord) {
    stats.instructions += 1;
    if rec.inst.is_load() {
        stats.loads += 1;
    }
    if rec.inst.is_store() {
        stats.stores += 1;
    }
    if rec.inst.is_branch() {
        stats.branches += 1;
    }
}

/// Atomic functional execution: no timing model at all. Cycles are defined
/// as the instruction count (IPC ≡ 1), every microarchitectural counter
/// stays zero.
#[derive(Debug, Default, Clone, Copy)]
pub struct FunctionalTier {
    spin: u32,
}

impl FunctionalTier {
    /// Builds the tier.
    pub fn new() -> FunctionalTier {
        FunctionalTier::default()
    }

    /// Sets the per-instruction host busy-loop (see [`Core::set_host_spin`]).
    pub fn set_host_spin(&mut self, iters: u32) {
        self.spin = iters;
    }

    /// Executes the whole trace and returns the statistics.
    pub fn run(&self, trace: &Trace) -> SimStats {
        let mut stats = SimStats::default();
        for rec in trace.records() {
            host_spin(self.spin);
            count_arch(&mut stats, rec);
        }
        stats.cycles = stats.instructions;
        stats
    }
}

/// A 1-cycle-per-instruction in-order timing model with a real memory
/// hierarchy: each load/store additionally pays its
/// [`MemoryHierarchy::access_data`] latency. No branch prediction, no
/// value prediction, no overlap — a cheap middle ground between
/// [`FunctionalTier`] and the OoO core.
#[derive(Debug, Clone)]
pub struct SimpleTier {
    cfg: CoreConfig,
    spin: u32,
}

impl SimpleTier {
    /// Builds the tier; the memory hierarchy comes from `cfg.mem`.
    pub fn new(cfg: CoreConfig) -> SimpleTier {
        SimpleTier { cfg, spin: 0 }
    }

    /// Sets the per-instruction host busy-loop (see [`Core::set_host_spin`]).
    pub fn set_host_spin(&mut self, iters: u32) {
        self.spin = iters;
    }

    /// Executes the whole trace and returns the statistics.
    pub fn run(&self, trace: &Trace) -> SimStats {
        let mut stats = SimStats::default();
        let mut mem = MemoryHierarchy::new(self.cfg.mem);
        for rec in trace.records() {
            host_spin(self.spin);
            count_arch(&mut stats, rec);
            stats.cycles += 1;
            let is_load = rec.inst.is_load();
            if is_load || rec.inst.is_store() {
                let access = mem.access_data(rec.pc, rec.eff_addr, is_load);
                stats.cycles += access.latency as u64;
            }
        }
        stats.mem = mem.stats();
        stats
    }
}

/// Pulls up to `n` records from the stream into a dense-seq window trace.
fn take_window<I: Iterator<Item = TraceRecord>>(records: &mut I, n: u64) -> Trace {
    let mut t = Trace::new();
    for _ in 0..n {
        match records.next() {
            Some(rec) => t.push(rec),
            None => break,
        }
    }
    t
}

/// Fast-forward + sampled detailed simulation over a record stream.
///
/// Consumes `records` according to `spec`: the first `spec.ff` records are
/// skipped functionally, then each `spec.period`-record window runs its
/// first `spec.warmup` records through a fresh cycle-level core with the
/// scheme gated warm-only (training continues, injection stops, stats
/// discarded), its next `spec.detail` records through a fresh core with the
/// gate lifted (stats accumulated), and skips the rest. The *scheme* is the
/// state that persists across windows — predictor tables keep learning over
/// the whole stream while timing state restarts per window, which is what
/// makes the result independent of how jobs are scheduled around it.
///
/// Returns the accumulated detail-window stats — with
/// [`SimStats::sampling`] populated — and the scheme. Tier transitions are
/// emitted into `sink` (pass [`lvp_obs::NullSink`] to discard them).
pub fn run_sampled<S, I, K>(
    cfg: &CoreConfig,
    mut scheme: S,
    records: I,
    spec: SampleSpec,
    spin: u32,
    mut sink: K,
) -> (SimStats, S)
where
    S: VpScheme,
    I: IntoIterator<Item = TraceRecord>,
    K: EventSink,
{
    let mut records = records.into_iter();
    let mut total = SimStats::default();
    let mut acct = SamplingStats::default();
    let mut consumed: u64 = 0;

    if spec.ff > 0 && K::ENABLED {
        sink.emit(ObsEvent::TierTransition {
            seq: consumed,
            cycle: total.cycles,
            tier: TierKind::Skip,
        });
    }
    for _ in 0..spec.ff {
        if records.next().is_none() {
            break;
        }
        consumed += 1;
        acct.skipped_instructions += 1;
    }

    loop {
        // ---- warmup: train predictors, discard timing -----------------
        if spec.warmup > 0 {
            let warm = take_window(&mut records, spec.warmup);
            if !warm.is_empty() {
                if K::ENABLED {
                    sink.emit(ObsEvent::TierTransition {
                        seq: consumed,
                        cycle: total.cycles,
                        tier: TierKind::Warmup,
                    });
                }
                scheme.set_warm_only(true);
                let mut core = Core::new(cfg.clone(), scheme);
                core.set_host_spin(spin);
                let (_, back) = core.run_with_scheme(&warm);
                scheme = back;
                scheme.set_warm_only(false);
                consumed += warm.len() as u64;
                acct.warmup_instructions += warm.len() as u64;
            }
            if (warm.len() as u64) < spec.warmup {
                break;
            }
        }

        // ---- detail: accumulate stats ---------------------------------
        let detail = take_window(&mut records, spec.detail);
        if detail.is_empty() {
            break;
        }
        if K::ENABLED {
            sink.emit(ObsEvent::TierTransition {
                seq: consumed,
                cycle: total.cycles,
                tier: TierKind::Detail,
            });
        }
        let mut core = Core::new(cfg.clone(), scheme);
        core.set_host_spin(spin);
        let (stats, back) = core.run_with_scheme(&detail);
        scheme = back;
        consumed += detail.len() as u64;
        acct.windows += 1;
        total.accumulate(&stats);
        if (detail.len() as u64) < spec.detail {
            break;
        }

        // ---- skip to the end of the period ----------------------------
        let skip = spec.period - spec.warmup - spec.detail;
        if skip > 0 && K::ENABLED {
            sink.emit(ObsEvent::TierTransition {
                seq: consumed,
                cycle: total.cycles,
                tier: TierKind::Skip,
            });
        }
        let mut exhausted = false;
        for _ in 0..skip {
            if records.next().is_none() {
                exhausted = true;
                break;
            }
            consumed += 1;
            acct.skipped_instructions += 1;
        }
        if exhausted {
            break;
        }
    }

    total.sampling = Some(acct);
    (total, scheme)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use crate::vp::NoVp;
    use lvp_obs::NullSink;

    fn sampled(cfg: &CoreConfig, t: &Trace, spec: SampleSpec) -> (SimStats, NoVp) {
        run_sampled(cfg, NoVp, t.records().iter().cloned(), spec, 0, NullSink)
    }

    fn trace(name: &str, budget: u64) -> Trace {
        lvp_workloads::by_name(name)
            .expect("workload exists")
            .trace(budget)
    }

    #[test]
    fn functional_tier_matches_ooo_architectural_counters() {
        let t = trace("nat", 20_000);
        let ooo = simulate(&t, NoVp);
        let f = FunctionalTier::new().run(&t);
        assert_eq!(f.instructions, ooo.instructions);
        assert_eq!(f.loads, ooo.loads);
        assert_eq!(f.stores, ooo.stores);
        assert_eq!(f.branches, ooo.branches);
        assert_eq!(
            f.cycles, f.instructions,
            "functional IPC is 1 by definition"
        );
        assert_eq!(f.mem.l1d.accesses, 0, "no timing model, no hierarchy");
    }

    #[test]
    fn simple_tier_sits_between_functional_and_ooo() {
        let t = trace("autcor", 20_000);
        let s = SimpleTier::new(CoreConfig::default()).run(&t);
        assert_eq!(s.instructions, t.len() as u64);
        assert!(
            s.cycles >= s.instructions,
            "memory latency can only add cycles"
        );
        assert_eq!(
            s.mem.l1d.accesses,
            s.loads + s.stores,
            "every memory op touches the hierarchy"
        );
    }

    #[test]
    fn single_window_covering_the_trace_equals_an_unsampled_run() {
        let t = trace("aifirf", 10_000);
        let n = t.len() as u64;
        let spec = SampleSpec {
            ff: 0,
            warmup: 0,
            detail: n,
            period: n,
        };
        let (sampled, _) = sampled(&CoreConfig::default(), &t, spec);
        let mut full = simulate(&t, NoVp);
        assert_eq!(sampled.sampling.map(|s| s.windows), Some(1));
        full.sampling = sampled.sampling;
        assert_eq!(
            sampled, full,
            "one whole-trace detail window is the full run"
        );
    }

    #[test]
    fn sampled_run_is_deterministic_and_accounts_for_every_instruction() {
        let t = trace("viterbi", 30_000);
        let spec = SampleSpec {
            ff: 1_000,
            warmup: 500,
            detail: 1_500,
            period: 4_000,
        };
        let cfg = CoreConfig::default();
        let (a, _) = sampled(&cfg, &t, spec);
        let (b, _) = sampled(&cfg, &t, spec);
        assert_eq!(a, b, "sampling must be deterministic");
        let acct = a.sampling.expect("sampled stats carry accounting");
        assert_eq!(
            acct.skipped_instructions + acct.warmup_instructions + a.instructions,
            t.len() as u64,
            "every record lands in exactly one tier"
        );
        assert!(acct.windows > 1);
        assert!(a.instructions < t.len() as u64, "detail is a sample");
    }

    #[test]
    fn sampled_run_emits_tier_transitions() {
        let t = trace("aifirf", 10_000);
        let spec = SampleSpec {
            ff: 2_000,
            warmup: 500,
            detail: 1_000,
            period: 3_000,
        };
        let mut sink = lvp_obs::RingSink::new(4096);
        let (stats, _) = run_sampled(
            &CoreConfig::default(),
            NoVp,
            t.records().iter().cloned(),
            spec,
            0,
            &mut sink,
        );
        let events = sink.into_ring().drain();
        assert!(!events.is_empty());
        assert_eq!(
            events[0],
            ObsEvent::TierTransition {
                seq: 0,
                cycle: 0,
                tier: TierKind::Skip
            }
        );
        assert!(events.iter().any(|e| matches!(
            e,
            ObsEvent::TierTransition {
                tier: TierKind::Detail,
                ..
            }
        )));
        assert!(stats.sampling.is_some());
    }
}
