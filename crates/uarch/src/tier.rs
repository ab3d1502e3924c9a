//! The fast-forward + sampled driver: the cycle-level [`Core`] run over
//! sampled windows of a record stream.
//!
//! [`run_sampled`] samples SMARTS-style: skip a fast-forward prefix, then
//! alternate per-period `warmup` windows (the scheme trains through
//! [`VpScheme::set_warm_only`] but injects nothing, stats discarded) with
//! `detail` windows whose stats accumulate, skipping the remainder of each
//! period. It consumes a record *stream* and holds one window at a time,
//! so its memory does not depend on the stream's length, and one stream
//! drives any number of [`SampledRun`]s. Sampling never changes any
//! unsampled artifact: the driver is only entered when a [`SampleSpec`] is
//! present.

use crate::config::CoreConfig;
use crate::core::Core;
use crate::simconfig::SampleSpec;
use crate::stats::{SamplingStats, SimStats};
use crate::vp::VpScheme;
use lvp_obs::{EventSink, ObsEvent, TierKind};
use lvp_trace::{Trace, TraceRecord};

/// Refills `window` with up to `n` records from the stream, numbered
/// densely from 0, reusing its allocation.
fn fill_window<I: Iterator<Item = TraceRecord>>(window: &mut Trace, records: &mut I, n: u64) {
    window.clear();
    for _ in 0..n {
        match records.next() {
            Some(rec) => window.push(rec),
            None => break,
        }
    }
}

/// Drops up to `n` records from the stream and returns how many it found.
fn skip<I: Iterator<Item = TraceRecord>>(records: &mut I, n: u64) -> u64 {
    let mut skipped = 0;
    while skipped < n && records.next().is_some() {
        skipped += 1;
    }
    skipped
}

/// One simulation a [`run_sampled`] stream drives: its own core
/// configuration, scheme, host spin and event sink, and the detail-window
/// stats it has accumulated.
#[derive(Debug)]
pub struct SampledRun<S, K> {
    pub cfg: CoreConfig,
    pub scheme: S,
    /// Per-instruction host busy-loop (see [`Core::set_host_spin`]).
    pub spin: u32,
    /// Receives this run's tier transitions, stamped with its own cycles.
    pub sink: K,
    /// Accumulated detail-window stats; [`SimStats::sampling`] is set when
    /// the stream ends.
    pub stats: SimStats,
}

impl<S: VpScheme, K: EventSink> SampledRun<S, K> {
    /// A run that has simulated nothing yet.
    pub fn new(cfg: CoreConfig, scheme: S, spin: u32, sink: K) -> SampledRun<S, K> {
        SampledRun {
            cfg,
            scheme,
            spin,
            sink,
            stats: SimStats::default(),
        }
    }

    fn enter(&mut self, seq: u64, tier: TierKind) {
        if K::ENABLED {
            self.sink.emit(ObsEvent::TierTransition {
                seq,
                cycle: self.stats.cycles,
                tier,
            });
        }
    }

    /// Runs `window` through a fresh core that borrows this run's scheme.
    fn run_window(&mut self, window: &Trace) -> SimStats {
        let mut core = Core::new(self.cfg.clone(), &mut self.scheme);
        core.set_host_spin(self.spin);
        core.run(window)
    }
}

/// Fast-forward + sampled detailed simulation of every run in `runs` over
/// one record stream.
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
/// Each window is taken from the stream once, into one reused buffer, and
/// run through every run's own core in turn. Runs share nothing but the
/// records, so each ends exactly as it would alone: a single simulation is
/// the one-run case. On return every run's [`SampledRun::stats`] holds its
/// accumulated detail-window stats with [`SimStats::sampling`] populated,
/// and its sink holds its tier transitions.
pub fn run_sampled<S, K, I>(runs: &mut [SampledRun<S, K>], records: I, spec: SampleSpec)
where
    S: VpScheme,
    K: EventSink,
    I: IntoIterator<Item = TraceRecord>,
{
    let mut records = records.into_iter();
    let mut window = Trace::new();
    let mut acct = SamplingStats::default();
    let mut consumed: u64 = 0;

    if spec.ff > 0 {
        runs.iter_mut()
            .for_each(|r| r.enter(consumed, TierKind::Skip));
    }
    let skipped = skip(&mut records, spec.ff);
    consumed += skipped;
    acct.skipped_instructions += skipped;

    loop {
        // ---- warmup: train predictors, discard timing -----------------
        if spec.warmup > 0 {
            fill_window(&mut window, &mut records, spec.warmup);
            let n = window.len() as u64;
            if n > 0 {
                for run in runs.iter_mut() {
                    run.enter(consumed, TierKind::Warmup);
                    run.scheme.set_warm_only(true);
                    run.run_window(&window);
                    run.scheme.set_warm_only(false);
                }
                consumed += n;
                acct.warmup_instructions += n;
            }
            if n < spec.warmup {
                break;
            }
        }

        // ---- detail: accumulate stats ---------------------------------
        fill_window(&mut window, &mut records, spec.detail);
        let n = window.len() as u64;
        if n == 0 {
            break;
        }
        for run in runs.iter_mut() {
            run.enter(consumed, TierKind::Detail);
            let stats = run.run_window(&window);
            run.stats.accumulate(&stats);
        }
        consumed += n;
        acct.windows += 1;
        if n < spec.detail {
            break;
        }

        // ---- skip to the end of the period ----------------------------
        let rest = spec.period - spec.warmup - spec.detail;
        if rest > 0 {
            runs.iter_mut()
                .for_each(|r| r.enter(consumed, TierKind::Skip));
        }
        let skipped = skip(&mut records, rest);
        consumed += skipped;
        acct.skipped_instructions += skipped;
        if skipped < rest {
            break;
        }
    }

    for run in runs.iter_mut() {
        run.stats.sampling = Some(acct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use crate::vp::NoVp;
    use lvp_obs::NullSink;

    fn sampled(cfg: &CoreConfig, t: &Trace, spec: SampleSpec) -> (SimStats, NoVp) {
        let mut runs = [SampledRun::new(cfg.clone(), NoVp, 0, NullSink)];
        run_sampled(&mut runs, t.records().iter().cloned(), spec);
        let [run] = runs;
        (run.stats, run.scheme)
    }

    fn trace(name: &str, budget: u64) -> Trace {
        lvp_workloads::by_name(name)
            .expect("workload exists")
            .trace(budget)
    }

    #[test]
    fn core_architectural_counters_match_the_trace() {
        let t = trace("nat", 20_000);
        let ooo = simulate(&t, NoVp);
        assert_eq!(ooo.instructions, t.len() as u64);
        assert_eq!(ooo.loads, t.load_count() as u64);
        assert_eq!(ooo.stores, t.store_count() as u64);
        assert_eq!(ooo.branches, t.branch_count() as u64);
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
        let mut runs = [SampledRun::new(
            CoreConfig::default(),
            NoVp,
            0,
            lvp_obs::RingSink::new(4096),
        )];
        run_sampled(&mut runs, t.records().iter().cloned(), spec);
        let [run] = runs;
        let stats = run.stats;
        let events = run.sink.into_ring().drain();
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
