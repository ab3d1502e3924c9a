//! Shared experiment machinery: run a workload's record stream (or a
//! trace) under each prediction scheme and collect the statistics every
//! figure draws from.
//!
//! Scheme dispatch lives in `dlvp::SchemeKind::build` — the single registry
//! that turns a scheme name into a configured predictor. The functions here
//! add the harness-side plumbing: core construction from a [`SimConfig`],
//! outcome collection, optional event tracing, and the derived energy model.

pub use dlvp::SchemeKind;
use lvp_energy::{core_energy, EnergyInput, EnergyParams, PredictorEnergyInput};
use lvp_json::{entries, json_struct, DecodeError, FromJson, Json};
use lvp_obs::{EventSink, NullSink};
use lvp_trace::Trace;
use lvp_uarch::{Core, SampleSpec, SampledRun, SimConfig, SimStats, VpScheme};
use lvp_workloads::Workload;

/// One scheme's outcome on one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeOutcome {
    pub scheme: SchemeKind,
    pub stats: SimStats,
    pub cycles: u64,
    pub coverage: f64,
    pub accuracy: f64,
    /// Scheme-specific counters (LSCD, PAQ, tournament providers, …).
    pub extra: Vec<(String, f64)>,
    /// Predictor storage and activity, for the energy model.
    pub predictor_bits: u64,
    pub predictor_reads: u64,
    pub predictor_writes: u64,
}

impl SchemeOutcome {
    /// Collects the outcome from a finished scheme: stats plus the scheme's
    /// own counters, storage budget and table activity.
    fn collect<S: VpScheme>(scheme: SchemeKind, stats: SimStats, s: &S) -> SchemeOutcome {
        let (reads, writes) = s.activity();
        SchemeOutcome {
            scheme,
            cycles: stats.cycles,
            coverage: stats.coverage(),
            accuracy: stats.accuracy(),
            extra: s
                .extra_counters()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            predictor_bits: s.storage_bits(),
            predictor_reads: reads,
            predictor_writes: writes,
            stats,
        }
    }

    /// One named extra counter.
    pub fn extra_counter(&self, name: &str) -> Option<f64> {
        self.extra.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Core energy under the default model.
    pub fn energy(&self) -> f64 {
        let s = &self.stats;
        let input = EnergyInput {
            cycles: s.cycles,
            instructions: s.instructions,
            l1i_accesses: s.mem.l1i.accesses,
            l1d_accesses: s.mem.l1d.accesses,
            l1d_probes: s.mem.l1d.probes,
            l2_accesses: s.mem.l2.accesses,
            l3_accesses: s.mem.l3.accesses,
            tlb_accesses: s.mem.tlb.accesses,
            prf_reads: s.prf_reads,
            prf_writes: s.prf_writes,
            pvt_reads: s.pvt_reads,
            pvt_writes: s.pvt_writes,
            flushes: s.vp_flushes,
            predictor: PredictorEnergyInput {
                storage_bits: self.predictor_bits,
                reads: self.predictor_reads,
                writes: self.predictor_writes,
            },
        };
        core_energy(&EnergyParams::default(), &input)
    }
}

// The payload `figs`, `runner`, `serve` and `obs` share through the
// store. Counters are `u64` and every float is written with the
// shortest-roundtrip formatter, so a decoded outcome re-encodes to the
// stored bytes.
json_struct!(SchemeOutcome {
    scheme,
    cycles,
    coverage,
    accuracy,
    extra with entries,
    predictor_bits,
    predictor_reads,
    predictor_writes,
    stats,
});

impl SchemeOutcome {
    /// Decodes a stored outcome ([`FromJson`], callable without the trait
    /// in scope).
    pub fn from_json(j: &Json) -> Result<SchemeOutcome, DecodeError> {
        <SchemeOutcome as FromJson>::from_json(j)
    }
}

/// Runs `scheme` over `trace` under `cfg`.
///
/// This function is **pure**: all predictor and core state is constructed
/// per call (no globals, no interior mutability shared between calls), so
/// for the same `(trace, scheme, cfg)` it returns bit-identical outcomes no
/// matter which thread runs it or how many run concurrently — the property
/// the parallel experiment runner is built on.
pub fn run_scheme(trace: &Trace, scheme: SchemeKind, cfg: &SimConfig) -> SchemeOutcome {
    run_scheme_with(trace, scheme, cfg, NullSink, 0).0
}

/// The one simulation entry point: [`run_scheme`] with an event `sink` and
/// a deliberate host-side busy-loop of `spin` iterations per simulated
/// instruction. Returns the outcome and the sink.
///
/// A config carrying a `SampleSpec` runs `lvp_uarch::run_sampled`,
/// whose tier transitions go to the sink; any other config runs the flat
/// cycle-level pass, whose lifecycle events go to the sink. Sinks only
/// observe, and the spin (`Core::set_host_spin`) only burns wall-clock, so
/// the outcome is bit-identical to [`run_scheme`]'s for every sink and
/// spin — which is what lets the throughput gate's `--inject-slowdown`
/// prove a slowdown with provably unchanged results.
pub fn run_scheme_with<K: EventSink>(
    trace: &Trace,
    scheme: SchemeKind,
    cfg: &SimConfig,
    sink: K,
    spin: u32,
) -> (SchemeOutcome, K) {
    if let Some(spec) = cfg.sample {
        let mut runs = [SampledRun::new(
            cfg.core.clone(),
            scheme.build(cfg),
            spin,
            sink,
        )];
        lvp_uarch::run_sampled(&mut runs, trace.records().iter().cloned(), spec);
        let [run] = runs;
        return (
            SchemeOutcome::collect(scheme, run.stats, &run.scheme),
            run.sink,
        );
    }
    let mut core = Core::with_sink(cfg.core.clone(), scheme.build(cfg), sink);
    core.set_host_spin(spin);
    let (stats, s, sink) = core.run_traced(trace);
    (SchemeOutcome::collect(scheme, stats, &s), sink)
}

/// Records an unsampled stream takes from the emulator at a time, into
/// one reused buffer that every member core then steps through in turn.
pub(crate) const STREAM_CHUNK: usize = 65_536;

/// Runs every `(scheme, config)` of `members` over one emulator pass of
/// `workload`'s first `budget` instructions, building no trace, and
/// returns their outcomes in order. Members share nothing but the records,
/// so outcome `i` is bit-identical to [`run_scheme`] of `members[i]` on
/// `workload.trace(budget)` under a config whose `sample` is `sample`.
///
/// With `sample` unset, the records are taken 65,536 at a time
/// (`STREAM_CHUNK`) and fed to every member's cycle-level [`Core`]. With a
/// [`SampleSpec`], each window is taken once and run through every
/// member's core (`lvp_uarch::run_sampled`). Either way the memory a
/// stream holds does not grow with `budget`.
pub fn run_stream(
    workload: &Workload,
    budget: u64,
    sample: Option<SampleSpec>,
    members: &[(SchemeKind, &SimConfig)],
) -> Vec<SchemeOutcome> {
    if let Some(spec) = sample {
        let mut runs: Vec<_> = members
            .iter()
            .map(|&(scheme, cfg)| SampledRun::new(cfg.core.clone(), scheme.build(cfg), 0, NullSink))
            .collect();
        lvp_uarch::run_sampled(&mut runs, workload.records(budget), spec);
        return members
            .iter()
            .zip(runs)
            .map(|(&(scheme, _), run)| SchemeOutcome::collect(scheme, run.stats, &run.scheme))
            .collect();
    }
    let mut cores: Vec<_> = members
        .iter()
        .map(|&(scheme, cfg)| Core::new(cfg.core.clone(), scheme.build(cfg)))
        .collect();
    let mut records = workload.records(budget);
    let mut chunk = Vec::with_capacity(STREAM_CHUNK);
    loop {
        chunk.clear();
        chunk.extend(records.by_ref().take(STREAM_CHUNK));
        if chunk.is_empty() {
            break;
        }
        for core in &mut cores {
            core.feed(&chunk);
        }
    }
    members
        .iter()
        .zip(cores)
        .map(|(&(scheme, _), core)| {
            let (stats, s, _) = core.finish();
            SchemeOutcome::collect(scheme, stats, &s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_json::ToJson;
    use lvp_obs::{ObsEvent, RingSink};

    #[test]
    fn outcome_roundtrips_through_json_byte_exactly() {
        let w = lvp_workloads::by_name("aifirf").expect("workload");
        let t = w.trace(8_000);
        for kind in SchemeKind::all() {
            let o = run_scheme(&t, kind, &SimConfig::default());
            let text = o.to_json().pretty();
            let back =
                SchemeOutcome::from_json(&Json::parse(&text).expect("parse")).expect("from_json");
            assert_eq!(back, o);
            assert_eq!(back.to_json().pretty(), text);
        }
    }

    #[test]
    fn outcome_energy_positive() {
        let w = lvp_workloads::by_name("nat").expect("workload");
        let t = w.trace(5_000);
        let o = run_scheme(&t, SchemeKind::Dlvp, &SimConfig::default());
        assert!(o.energy() > 0.0);
        assert!(o.extra_counter("addr_predictions").is_some());
    }

    #[test]
    fn replay_never_flushes() {
        let w = lvp_workloads::by_name("viterbi").expect("workload");
        let t = w.trace(20_000);
        let cfg = SimConfig::preset("oracle_replay").expect("known preset");
        let o = run_scheme(&t, SchemeKind::Cap, &cfg);
        assert_eq!(o.stats.vp_flushes, 0);
    }

    #[test]
    fn sampled_dispatch_is_deterministic_and_marked() {
        let w = lvp_workloads::by_name("autcor").expect("workload");
        let t = w.trace(20_000);
        let mut cfg = SimConfig {
            sample: Some(lvp_uarch::SampleSpec {
                ff: 2_000,
                warmup: 500,
                detail: 1_000,
                period: 3_000,
            }),
            ..SimConfig::default()
        };
        let a = run_scheme(&t, SchemeKind::Dlvp, &cfg);
        let b = run_scheme(&t, SchemeKind::Dlvp, &cfg);
        assert_eq!(a, b, "sampled outcomes must be deterministic");
        assert!(a.stats.sampling.is_some(), "sampled stats carry accounting");
        assert!(a.stats.instructions < t.len() as u64);
        // Unsampled outcomes stay free of the sampling key.
        cfg.sample = None;
        let plain = run_scheme(&t, SchemeKind::Dlvp, &cfg);
        assert!(plain.stats.sampling.is_none());
        assert!(!plain.to_json().pretty().contains("sampling"));
    }

    #[test]
    fn traced_stats_match_untraced() {
        let w = lvp_workloads::by_name("aifirf").expect("workload");
        let t = w.trace(5_000);
        let cfg = SimConfig::default();
        for kind in SchemeKind::all() {
            let plain = run_scheme(&t, kind, &cfg);
            let (traced, sink) = run_scheme_with(&t, kind, &cfg, RingSink::new(1024), 0);
            assert_eq!(plain, traced, "{} diverged under tracing", kind.name());
            // Even the baseline records core pipeline lifecycle events.
            let events = sink.into_ring().drain();
            assert!(!events.is_empty(), "{} recorded nothing", kind.name());
        }
    }

    #[test]
    fn sampled_run_with_a_sink_matches_run_scheme_and_records_tier_transitions() {
        let t = lvp_workloads::by_name("autcor")
            .expect("workload")
            .trace(20_000);
        let cfg = SimConfig {
            sample: Some(lvp_uarch::SampleSpec {
                ff: 2_000,
                warmup: 500,
                detail: 1_000,
                period: 3_000,
            }),
            ..SimConfig::default()
        };
        let plain = run_scheme(&t, SchemeKind::Dlvp, &cfg);
        let (traced, sink) = run_scheme_with(&t, SchemeKind::Dlvp, &cfg, RingSink::new(4096), 0);
        assert_eq!(traced, plain, "a sink must not change a sampled outcome");
        assert!(traced.stats.sampling.is_some(), "the sampled path ran");
        let events = sink.into_ring().drain();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ObsEvent::TierTransition { .. })),
            "a sampled run records its tier transitions"
        );
    }

    /// Every end of a 12k-instruction stream: mid-warmup, mid-detail,
    /// mid-skip, a zero-warmup spec, and a fast-forward past the budget.
    const STREAM_BUDGET: u64 = 12_000;
    const STREAM_SPECS: [lvp_uarch::SampleSpec; 5] = [
        lvp_uarch::SampleSpec {
            ff: 0,
            warmup: 3_000,
            detail: 1_000,
            period: 5_000,
        },
        lvp_uarch::SampleSpec {
            ff: 0,
            warmup: 1_000,
            detail: 3_000,
            period: 5_000,
        },
        lvp_uarch::SampleSpec {
            ff: 1_000,
            warmup: 1_000,
            detail: 1_000,
            period: 4_000,
        },
        lvp_uarch::SampleSpec {
            ff: 2_000,
            warmup: 0,
            detail: 1_500,
            period: 2_500,
        },
        lvp_uarch::SampleSpec {
            ff: 20_000,
            warmup: 100,
            detail: 500,
            period: 1_000,
        },
    ];

    fn every_scheme() -> Vec<SchemeKind> {
        SchemeKind::all()
            .into_iter()
            .chain([SchemeKind::Dvtage])
            .collect()
    }

    #[test]
    fn a_stream_group_equals_one_member_trace_runs_with_their_events() {
        let w = lvp_workloads::by_name("perlbmk").expect("workload");
        let trace = w.trace(STREAM_BUDGET);
        let variants = [
            SimConfig::default(),
            SimConfig::preset("no_prefetch").expect("known preset"),
        ];
        for spec in STREAM_SPECS {
            let points: Vec<(SchemeKind, SimConfig)> = variants
                .iter()
                .flat_map(|v| {
                    every_scheme().into_iter().map(move |kind| {
                        let cfg = SimConfig {
                            sample: Some(spec),
                            ..v.clone()
                        };
                        (kind, cfg)
                    })
                })
                .collect();
            let mut group: Vec<_> = points
                .iter()
                .map(|(kind, cfg)| {
                    SampledRun::new(cfg.core.clone(), kind.build(cfg), 0, RingSink::new(1024))
                })
                .collect();
            lvp_uarch::run_sampled(&mut group, w.records(STREAM_BUDGET), spec);
            for ((kind, cfg), run) in points.iter().zip(group) {
                let (alone, sink) = run_scheme_with(&trace, *kind, cfg, RingSink::new(1024), 0);
                let shared = SchemeOutcome::collect(*kind, run.stats, &run.scheme);
                let what = format!("{} under {spec:?}", kind.name());
                assert_eq!(shared, alone, "{what}");
                assert_eq!(
                    run.sink.into_ring().drain(),
                    sink.into_ring().drain(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn run_stream_equals_run_scheme_on_the_trace() {
        let w = lvp_workloads::by_name("aifirf").expect("workload");
        let kinds = every_scheme();

        let trace = w.trace(STREAM_BUDGET);
        let spec = STREAM_SPECS[2];
        let cfg = SimConfig {
            sample: Some(spec),
            ..SimConfig::default()
        };
        let points: Vec<(SchemeKind, &SimConfig)> = kinds.iter().map(|&k| (k, &cfg)).collect();
        let streamed = run_stream(&w, STREAM_BUDGET, Some(spec), &points);
        for (&kind, o) in kinds.iter().zip(&streamed) {
            assert_eq!(
                *o,
                run_scheme(&trace, kind, &cfg),
                "{} sampled",
                kind.name()
            );
        }

        // Unsampled, over a budget that ends inside the second chunk.
        let budget = STREAM_CHUNK as u64 + 3_001;
        let trace = w.trace(budget);
        let cfg = SimConfig::default();
        let points: Vec<(SchemeKind, &SimConfig)> = kinds.iter().map(|&k| (k, &cfg)).collect();
        let streamed = run_stream(&w, budget, None, &points);
        for (&kind, o) in kinds.iter().zip(&streamed) {
            assert_eq!(o.stats.instructions, budget);
            assert_eq!(*o, run_scheme(&trace, kind, &cfg), "{}", kind.name());
        }
    }
}
