//! Host-telemetry contract tests: recording phases, progress meters, and
//! manifest emission must never change any deterministic artifact, and the
//! manifest/trace documents must round-trip their schemas.

use lvp_bench::perf::{bench_doc, BenchPolicy, DEFAULT_TOL_REL};
use lvp_bench::runner::{run_matrix, run_matrix_with, MatrixSpec};
use lvp_bench::specs::{self, run_specs, run_specs_with};
use lvp_bench::{
    analysis, config_hash, par_map, par_map_metered, run_scheme, run_scheme_with, Manifest,
    Progress, SchemeKind,
};
use lvp_json::{Json, ToJson};
use lvp_obs::{host_trace, NullPhases, NullSink, PhaseRecorder, PhaseSink};
use lvp_uarch::SimConfig;

const BUDGET: u64 = 8_000;

fn small_spec() -> MatrixSpec {
    let mut spec = MatrixSpec::full(BUDGET);
    spec.workloads = vec!["aifirf".into(), "libquantum".into()];
    spec.schemes = vec![SchemeKind::Baseline, SchemeKind::Dlvp];
    spec
}

/// The load-bearing byte-identity guarantee: recording telemetry does not
/// perturb the results artifact, for any worker count.
#[test]
fn recorded_matrix_results_are_byte_identical() {
    let spec = small_spec();
    let plain = run_matrix(&spec, 1).to_json().pretty();
    for workers in [1usize, 3] {
        let rec = PhaseRecorder::new();
        let recorded = run_matrix_with(&spec, workers, &rec, &Progress::off());
        assert_eq!(recorded.to_json().pretty(), plain);
        assert!(
            rec.spans().iter().any(|s| s.name == "simulate"),
            "recorder captured the simulate phase"
        );
    }
}

/// An enabled progress meter writes stderr only; results stay identical.
#[test]
fn progress_meter_does_not_change_results() {
    let spec = small_spec();
    let quiet = run_matrix(&spec, 2).to_json().pretty();
    let progress = Progress::new("test", spec.expand().len(), true);
    let noisy = run_matrix_with(&spec, 2, &NullPhases, &progress);
    assert_eq!(noisy.to_json().pretty(), quiet);
    assert_eq!(progress.done(), spec.expand().len());
}

/// Spec-pipeline renders are identical with and without telemetry.
#[test]
fn recorded_spec_renders_are_byte_identical() {
    let selected = vec![specs::by_name("fig05_prefetch").expect("registered spec")];
    let plain = run_specs(&selected, BUDGET, 2);
    let rec = PhaseRecorder::new();
    let recorded = run_specs_with(&selected, BUDGET, 2, &rec, &Progress::off());
    assert_eq!(recorded.len(), plain.len());
    for (a, b) in recorded.iter().zip(plain.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.text, b.text);
    }
    let spans = rec.spans();
    for phase in ["simulate", "render"] {
        assert!(spans.iter().any(|s| s.name == phase), "missing {phase}");
    }
}

/// Analysis reports are identical with and without telemetry.
#[test]
fn recorded_analysis_is_byte_identical() {
    let workloads = vec![lvp_workloads::by_name("aifirf").expect("workload")];
    let pap = dlvp::PapConfig::default();
    let dcfg = dlvp::DlvpConfig::default();
    let xval = lvp_analysis::XvalConfig::default();
    let plain = analysis::analyze_workloads(&workloads, BUDGET, pap, dcfg, &xval);
    let rec = PhaseRecorder::new();
    let recorded = analysis::analyze_workloads_serviced(
        &workloads,
        BUDGET,
        pap,
        dcfg,
        &xval,
        &rec,
        &Progress::off(),
        &lvp_store::SimService::disabled(),
    );
    assert_eq!(
        analysis::report_json(&recorded, BUDGET).pretty(),
        analysis::report_json(&plain, BUDGET).pretty()
    );
    assert_eq!(
        analysis::depgraph_json(&recorded).pretty(),
        analysis::depgraph_json(&plain).pretty()
    );
}

/// The host-spin injection slows the wall clock but never the simulation:
/// every deterministic counter matches the unspun run.
#[test]
fn injected_slowdown_is_invisible_to_the_simulation() {
    let trace = lvp_workloads::by_name("aifirf")
        .expect("workload")
        .trace(BUDGET);
    let cfg = SimConfig::default();
    let plain = run_scheme(&trace, SchemeKind::Dlvp, &cfg);
    let (spun, _) = run_scheme_with(&trace, SchemeKind::Dlvp, &cfg, NullSink, 40);
    assert_eq!(spun.stats, plain.stats);
    assert_eq!(spun.to_json().pretty(), plain.to_json().pretty());
}

/// `par_map_metered` with a recorder returns what `par_map` returns, and
/// its `job:` spans carry the metered work.
#[test]
fn metered_pool_matches_plain_pool() {
    let items: Vec<u64> = (0..17).collect();
    let plain = par_map(&items, 4, |&x| x * x);
    let rec = PhaseRecorder::new();
    let metered = par_map_metered(
        &items,
        4,
        &rec,
        &Progress::off(),
        |x| format!("job:{x}"),
        |r: &u64| (*r, 1, 1),
        |&x| x * x,
    );
    assert_eq!(metered, plain);
    let spans = rec.spans();
    let jobs: Vec<_> = spans
        .iter()
        .filter(|s| s.name.starts_with("job:"))
        .collect();
    assert_eq!(jobs.len(), items.len());
    assert!(jobs.iter().all(|s| s.lane >= 1), "jobs run on worker lanes");
    let charged: u64 = jobs.iter().map(|s| s.sim_cycles).sum();
    assert_eq!(charged, items.iter().map(|x| x * x).sum::<u64>());
    assert!(
        jobs.iter().all(|s| s.jobs == 1),
        "each span charges its job"
    );
}

/// The manifest's config hash is a function of the configuration alone —
/// stable across `--jobs` — and the manifest document round-trips.
#[test]
fn manifest_round_trips_and_hash_ignores_workers() {
    let spec = small_spec();
    let mut manifests = Vec::new();
    for workers in [1usize, 4] {
        let rec = PhaseRecorder::new();
        let _ = run_matrix_with(&spec, workers, &rec, &Progress::off());
        let m = Manifest::build(
            "runner",
            &spec.to_json(),
            spec.budget,
            spec.expand().iter().map(|j| j.seed()).collect(),
            workers,
            &rec,
            None,
        );
        assert_eq!(m.jobs, spec.expand().len() as u64);
        assert!(m.per_job.iter().all(|j| (j.worker as usize) < workers));
        let parsed = Manifest::parse(&m.to_json()).expect("manifest parses back");
        assert_eq!(parsed.to_json().pretty(), m.to_json().pretty());
        manifests.push(m);
    }
    assert_eq!(manifests[0].config_hash, manifests[1].config_hash);
    assert_eq!(
        manifests[0].config_hash,
        config_hash("runner", &spec.to_json())
    );
    assert_ne!(
        config_hash("figs", &spec.to_json()),
        manifests[0].config_hash,
        "tool name is part of the hash"
    );
}

/// A sampled matrix runs one `stream:` span per workload, and the manifest
/// accounts each stream as a work item carrying its members' summed work.
#[test]
fn sampled_streams_are_accounted_in_the_manifest() {
    let mut spec = small_spec();
    spec.budget = 20_000;
    spec.sample = Some(lvp_uarch::SampleSpec {
        ff: 2_000,
        warmup: 1_000,
        detail: 2_000,
        period: 5_000,
    });
    let rec = PhaseRecorder::new();
    let results = run_matrix_with(&spec, 2, &rec, &Progress::off());
    assert_eq!(
        results.to_json().pretty(),
        run_matrix(&spec, 1).to_json().pretty()
    );
    let spans = rec.spans();
    assert!(
        !spans.iter().any(|s| s.name.starts_with("trace:")),
        "a sampled run builds no trace"
    );
    let m = Manifest::build(
        "runner",
        &spec.to_json(),
        spec.budget,
        vec![],
        2,
        &rec,
        None,
    );
    let labels: Vec<&str> = m.per_job.iter().map(|j| j.label.as_str()).collect();
    assert_eq!(labels, ["stream:aifirf", "stream:libquantum"]);
    assert_eq!(m.jobs, spec.expand().len() as u64, "jobs count simulations");
    let cycles: u64 = results.jobs.iter().map(|j| j.outcome.stats.cycles).sum();
    assert_eq!(m.sim_cycles, cycles);
}

/// The Chrome host trace is one JSON array of complete events, one lane per
/// worker, covering every recorded span.
#[test]
fn chrome_host_trace_round_trips() {
    let rec = PhaseRecorder::new();
    rec.time(0, "outer", || {
        rec.time(1, "job:a/x/y", || std::hint::black_box(3 + 4))
    });
    let spans = rec.spans();
    let doc = Json::parse(&host_trace(&spans).pretty()).expect("host trace is JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let phase_events: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert_eq!(phase_events.len(), spans.len());
    for ev in &phase_events {
        assert!(ev.get("name").and_then(Json::as_str).is_some());
        assert!(matches!(ev.get("pid"), Some(Json::U64(_))));
    }
    // Lane metadata: a "main" thread name plus one per worker lane used.
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some("thread_name")));
}

/// Schema-v2 baseline documents survive a disk round-trip through the same
/// parser `bench --check` uses.
#[test]
fn bench_doc_round_trips_through_baseline_parser() {
    let rows = vec![lvp_bench::perf::BenchRow {
        phase: "simcore".into(),
        workload: "aifirf".into(),
        scheme: "DLVP".into(),
        budget: 50_000,
        det: vec![("sim_cycles".into(), 12_345)],
        median_ns: 1_000_000,
        min_ns: 900_000,
        max_ns: 1_100_000,
        sim_cycles_per_sec: 12_345.0e3,
    }];
    let doc = bench_doc(&BenchPolicy::default(), DEFAULT_TOL_REL, &rows);
    let reparsed = Json::parse(&doc.pretty()).expect("doc is JSON");
    let baseline = lvp_bench::perf::Baseline::parse(&reparsed).expect("v2 baseline parses");
    assert_eq!(baseline.tol_rel, DEFAULT_TOL_REL);
    assert_eq!(baseline.rows, rows);
}
