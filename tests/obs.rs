//! Observability integration tests: the tracing sink must be a pure
//! observer (identical statistics with tracing on or off), artifacts must be
//! deterministic and round-trip through `lvp-json`, and the lifecycle
//! report's injection columns must reconcile exactly with
//! `SimStats::per_pc`.

use lvp_bench::{run_scheme, run_scheme_with, SchemeKind, SchemeOutcome};
use lvp_json::{Json, ToJson};
use lvp_obs::{chrome_trace, LifecycleReport, ObsEvent, RingSink, RunMeta};
use lvp_trace::Trace;
use lvp_uarch::SimConfig;

/// `run_scheme_with` into a ring of `capacity` events: the outcome, the
/// surviving events oldest-first, and how many the ring overwrote.
fn run_ring(
    trace: &Trace,
    scheme: SchemeKind,
    cfg: &SimConfig,
    capacity: usize,
) -> (SchemeOutcome, Vec<ObsEvent>, u64) {
    let (outcome, sink) = run_scheme_with(trace, scheme, cfg, RingSink::new(capacity), 0);
    let ring = sink.into_ring();
    let overwritten = ring.overwritten();
    (outcome, ring.drain(), overwritten)
}

fn traced(workload: &str, budget: u64) -> (SchemeOutcome, Vec<ObsEvent>, u64) {
    let w = lvp_workloads::by_name(workload).expect("workload exists");
    let trace = w.trace(budget);
    run_ring(
        &trace,
        SchemeKind::Dlvp,
        &SimConfig::default(),
        budget as usize * 8,
    )
}

/// Satellite acceptance: a NullSink (untraced) run and a fully-traced run
/// produce byte-identical `SimStats` via `ToJson`, on two workloads.
#[test]
fn traced_stats_byte_identical_to_nullsink_on_two_workloads() {
    for workload in ["aifirf", "libquantum"] {
        let w = lvp_workloads::by_name(workload).expect("workload exists");
        let trace = w.trace(8_000);
        let cfg = SimConfig::default();
        let plain = run_scheme(&trace, SchemeKind::Dlvp, &cfg);
        let (traced, events, _) = run_ring(&trace, SchemeKind::Dlvp, &cfg, 64_000);
        assert!(!events.is_empty(), "{workload}: tracing recorded nothing");
        assert_eq!(
            plain.stats.to_json().pretty(),
            traced.stats.to_json().pretty(),
            "{workload}: tracing changed the simulation"
        );
        assert_eq!(
            plain.to_json().pretty(),
            traced.to_json().pretty(),
            "{workload}: tracing changed the scheme outcome"
        );
    }
}

/// Tracing must not perturb the baseline core either.
#[test]
fn baseline_stats_unchanged_by_tracing() {
    let w = lvp_workloads::by_name("nat").expect("workload exists");
    let trace = w.trace(6_000);
    let cfg = SimConfig::default();
    let plain = run_scheme(&trace, SchemeKind::Baseline, &cfg);
    let (traced, _, _) = run_ring(&trace, SchemeKind::Baseline, &cfg, 64_000);
    assert_eq!(
        plain.stats.to_json().pretty(),
        traced.stats.to_json().pretty()
    );
}

/// Satellite acceptance: the traced run's Chrome JSON round-trips through
/// `lvp-json` unchanged, and is identical across repeated runs.
#[test]
fn chrome_trace_round_trips_and_is_deterministic() {
    let (_, events_a, _) = traced("aifirf", 5_000);
    let (_, events_b, _) = traced("aifirf", 5_000);
    let a = chrome_trace(&events_a);
    let b = chrome_trace(&events_b);
    assert_eq!(a.compact(), b.compact(), "trace must be run-invariant");

    let text = a.compact();
    let parsed = Json::parse(&text).expect("chrome trace parses");
    assert_eq!(parsed, a, "parse(compact(x)) == x");
    assert_eq!(parsed.compact(), text, "compact(parse(t)) == t");

    let top = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents");
    assert!(!top.is_empty());
    // Every record carries the mandatory trace_event keys ("M" metadata
    // records legitimately have no timestamp).
    for ev in top {
        for key in ["ph", "pid", "name"] {
            assert!(ev.get(key).is_some(), "missing {key} in {ev:?}");
        }
        if ev.get("ph") != Some(&Json::Str("M".to_string())) {
            for key in ["tid", "ts"] {
                assert!(ev.get(key).is_some(), "missing {key} in {ev:?}");
            }
        }
    }
}

/// Tentpole acceptance: per-PC injected/correct/conflict_squashes counted
/// from the event stream reconcile exactly with `SimStats::per_pc`.
#[test]
fn lifecycle_report_reconciles_with_per_pc_stats() {
    let (outcome, events, overwritten) = traced("aifirf", 10_000);
    assert_eq!(overwritten, 0, "ring sized for a lossless run");
    let report = LifecycleReport::build(
        RunMeta {
            workload: "aifirf".to_string(),
            scheme: "DLVP".to_string(),
            budget: 10_000,
        },
        &events,
        overwritten,
    );
    let stats = &outcome.stats;
    assert!(
        stats.vp_predicted_loads > 0,
        "nothing predicted; test is vacuous"
    );

    for (&pc, s) in &stats.per_pc {
        let r = report.per_pc().get(&pc).copied().unwrap_or_default();
        assert_eq!(r.injected, s.injected, "pc {pc:#x} injected");
        assert_eq!(r.correct, s.correct, "pc {pc:#x} correct");
        assert_eq!(
            r.conflict_squashes, s.conflict_squashes,
            "pc {pc:#x} conflict_squashes"
        );
        assert_eq!(r.executions, s.executions, "pc {pc:#x} executions");
    }
    // And no phantom injections exist only in the report.
    for (&pc, r) in report.per_pc() {
        if r.injected > 0 {
            assert!(
                stats.per_pc.contains_key(&pc),
                "report injected at pc {pc:#x} unknown to stats"
            );
        }
    }
    // The report itself round-trips.
    let j = report.to_json();
    assert_eq!(Json::parse(&j.pretty()).expect("parses"), j);
}

/// A ring far smaller than the event volume must overwrite (and say so)
/// without corrupting the simulation.
#[test]
fn tiny_ring_overwrites_without_perturbing_stats() {
    let w = lvp_workloads::by_name("aifirf").expect("workload exists");
    let trace = w.trace(5_000);
    let cfg = SimConfig::default();
    let plain = run_scheme(&trace, SchemeKind::Dlvp, &cfg);
    let (traced, events, overwritten) = run_ring(&trace, SchemeKind::Dlvp, &cfg, 32);
    assert_eq!(events.len(), 32);
    assert!(overwritten > 0);
    assert_eq!(
        plain.stats.to_json().pretty(),
        traced.stats.to_json().pretty()
    );
}
