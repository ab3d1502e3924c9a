//! Property tests for the content-addressed result store's key space and
//! the cold/warm/disabled execution invariants (DESIGN.md §14).
//!
//! The contract under test: a store key is a pure function of the request
//! *content* — never of JSON assembly order, worker count, or which
//! consumer built the document — and bumping the key schema version makes
//! every previously stored entry unreachable rather than misinterpreted.

use lvp_bench::specs::{run_specs_serviced, SPECS};
use lvp_bench::{
    execute_batch, run_matrix_serviced, sim_request_doc, BatchRequest, ConfigVariant, MatrixSpec,
    Progress, SchemeKind,
};
use lvp_json::Json;
use lvp_obs::{NullPhases, PhaseRecorder};
use lvp_store::{request_key, request_key_versioned, SimService, Store, KEY_SCHEMA_VERSION};
use lvp_uarch::{SampleSpec, SimConfig};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lvp-store-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Recursively shuffles every JSON object's key order (reverses each pair
/// list) without changing content.
fn permute(j: &Json) -> Json {
    match j {
        Json::Object(pairs) => Json::Object(
            pairs
                .iter()
                .rev()
                .map(|(k, v)| (k.clone(), permute(v)))
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.iter().map(permute).collect()),
        other => other.clone(),
    }
}

#[test]
fn keys_are_invariant_to_json_assembly_order() {
    for scheme in SchemeKind::all() {
        for variant in ConfigVariant::all() {
            let doc = sim_request_doc(0xdead_beef, 20_000, scheme.name(), &variant.config());
            let shuffled = permute(&doc);
            assert_ne!(
                doc.compact(),
                shuffled.compact(),
                "permutation must actually reorder the serialized form"
            );
            assert_eq!(
                request_key(&doc),
                request_key(&shuffled),
                "{}/{}: key depends on JSON key order",
                scheme.name(),
                variant.name()
            );
        }
    }
}

#[test]
fn pinned_preset_scheme_matrix_never_collides() {
    // Every (preset, scheme, budget, trace, sampled?) combination the
    // committed experiments can request must map to a distinct key; a
    // collision would silently serve one config's results as another's.
    let mut seen: HashMap<String, String> = HashMap::new();
    for &fingerprint in &[0x1111_u64, 0x2222] {
        for &budget in &[20_000u64, 200_000] {
            for scheme in SchemeKind::all() {
                for variant in ConfigVariant::all() {
                    for sample in [
                        None,
                        Some(SampleSpec {
                            ff: 10_000,
                            warmup: 2_000,
                            detail: 4_000,
                            period: 10_000,
                        }),
                    ] {
                        let mut cfg = variant.config();
                        cfg.sample = sample;
                        let id = format!(
                            "{fingerprint:x}/{budget}/{}/{}/{}",
                            scheme.name(),
                            variant.name(),
                            sample.is_some()
                        );
                        let key =
                            request_key(&sim_request_doc(fingerprint, budget, scheme.name(), &cfg));
                        if let Some(prev) = seen.insert(key, id.clone()) {
                            panic!("key collision between '{prev}' and '{id}'");
                        }
                    }
                }
            }
        }
    }
    assert_eq!(seen.len(), 2 * 2 * 5 * 6 * 2);
}

#[test]
fn schema_version_bump_invalidates_stored_entries() {
    let dir = temp_dir("schema");
    let store = Store::open(&dir).expect("open store");
    let doc = sim_request_doc(0xabcd, 20_000, "DLVP", &SimConfig::default());
    let old_key = request_key_versioned(&doc, KEY_SCHEMA_VERSION);
    assert_eq!(
        old_key,
        request_key(&doc),
        "request_key must use the current schema version"
    );
    store
        .put(&old_key, &Json::obj([("cycles", Json::U64(7))]))
        .expect("put");

    // After a (hypothetical) schema bump the same request hashes to a key
    // the old entry is not stored under: a clean miss, never a stale read.
    let new_key = request_key_versioned(&doc, KEY_SCHEMA_VERSION + 1);
    assert_ne!(old_key, new_key);
    assert_eq!(store.get(&new_key).expect("get"), None);
    assert!(store.get(&old_key).expect("get").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn matrix_results_and_stored_keys_are_jobs_invariant() {
    let spec = MatrixSpec {
        workloads: vec!["aifirf".into(), "nat".into()],
        schemes: vec![SchemeKind::Baseline, SchemeKind::Dlvp],
        variants: vec![ConfigVariant::Default],
        budget: 3_000,
        sample: None,
    };

    let dir1 = temp_dir("jobs1");
    let dir4 = temp_dir("jobs4");
    let svc1 = SimService::open(&dir1).expect("open service");
    let svc4 = SimService::open(&dir4).expect("open service");
    let serial = run_matrix_serviced(&spec, 1, &NullPhases, &Progress::off(), &svc1);
    let parallel = run_matrix_serviced(&spec, 4, &NullPhases, &Progress::off(), &svc4);

    // Same artifact bytes regardless of worker count...
    assert_eq!(serial.to_json().pretty(), parallel.to_json().pretty());
    // ...and the two stores ended up with the exact same key population.
    let keys1 = Store::open(&dir1).expect("reopen").keys().expect("keys");
    let keys4 = Store::open(&dir4).expect("reopen").keys().expect("keys");
    assert_eq!(keys1, keys4, "stored keys depend on --jobs");
    assert_eq!(keys1.len(), 4, "one entry per job");
    assert_eq!(svc1.counters().misses, 4);
    assert_eq!(svc1.counters().hits, 0);

    // A warm re-run (any worker count) answers fully from the store with
    // byte-identical results.
    let warm_svc = SimService::open(&dir1).expect("open service");
    let warm = run_matrix_serviced(&spec, 2, &NullPhases, &Progress::off(), &warm_svc);
    assert_eq!(serial.to_json().pretty(), warm.to_json().pretty());
    assert_eq!(warm_svc.counters().hits, 4);
    assert_eq!(warm_svc.counters().misses, 0);

    // And a store-disabled run of the same spec is byte-identical too.
    let disabled = run_matrix_serviced(
        &spec,
        2,
        &NullPhases,
        &Progress::off(),
        &SimService::disabled(),
    );
    assert_eq!(serial.to_json().pretty(), disabled.to_json().pretty());

    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}

#[test]
fn distinct_dimensions_change_the_key() {
    let cfg = SimConfig::default();
    let base = request_key(&sim_request_doc(1, 20_000, "DLVP", &cfg));
    let other_trace = request_key(&sim_request_doc(2, 20_000, "DLVP", &cfg));
    let other_budget = request_key(&sim_request_doc(1, 20_001, "DLVP", &cfg));
    let other_scheme = request_key(&sim_request_doc(1, 20_000, "VTAGE", &cfg));
    let keys: HashSet<_> = [&base, &other_trace, &other_budget, &other_scheme]
        .into_iter()
        .collect();
    assert_eq!(keys.len(), 4, "every request dimension must reach the key");
}

/// The Figure 6 design points at a small budget, as `figs` requests them
/// and as the equivalent `runner` matrix.
const CROSS_BUDGET: u64 = 2_000;

fn fig06_matrix() -> MatrixSpec {
    let mut spec = MatrixSpec::full(CROSS_BUDGET);
    spec.schemes = vec![
        SchemeKind::Baseline,
        SchemeKind::Cap,
        SchemeKind::Vtage,
        SchemeKind::Dlvp,
    ];
    spec
}

fn run_fig06(svc: &SimService) -> (String, u64) {
    let spec = SPECS
        .iter()
        .find(|s| s.name == "fig06_comparison")
        .expect("fig06_comparison is registered");
    let rec = PhaseRecorder::new();
    let text = run_specs_serviced(&[spec], CROSS_BUDGET, 2, &rec, &Progress::off(), svc)
        .remove(0)
        .text;
    (text, executed_jobs(&rec))
}

fn run_fig06_matrix(svc: &SimService) -> (String, u64) {
    let rec = PhaseRecorder::new();
    let results = run_matrix_serviced(&fig06_matrix(), 2, &rec, &Progress::off(), svc);
    (results.to_json().pretty(), executed_jobs(&rec))
}

/// Sim jobs a run actually executed: the jobs charged on its `simulate`
/// span.
fn executed_jobs(rec: &PhaseRecorder) -> u64 {
    rec.spans()
        .iter()
        .filter(|s| s.name == "simulate")
        .map(|s| s.jobs)
        .sum()
}

#[test]
fn figs_then_runner_executes_no_jobs() {
    let dir = temp_dir("figs-runner");
    let (fig, fig_jobs) = run_fig06(&SimService::open(&dir).expect("open service"));
    assert_eq!(fig_jobs, fig06_matrix().expand().len() as u64);

    let svc = SimService::open(&dir).expect("open service");
    let (matrix, jobs) = run_fig06_matrix(&svc);
    assert_eq!(jobs, 0, "runner re-executed design points figs stored");
    let c = svc.counters();
    assert_eq!((c.misses, c.writes), (0, 0), "counters: {c:?}");

    let cold = run_fig06_matrix(&SimService::disabled()).0;
    assert_eq!(matrix, cold, "a warm runner matrix is byte-identical");
    assert_eq!(fig, run_fig06(&SimService::disabled()).0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runner_then_figs_executes_no_jobs() {
    let dir = temp_dir("runner-figs");
    let (_, matrix_jobs) = run_fig06_matrix(&SimService::open(&dir).expect("open service"));
    assert_eq!(matrix_jobs, fig06_matrix().expand().len() as u64);

    let svc = SimService::open(&dir).expect("open service");
    let (fig, jobs) = run_fig06(&svc);
    assert_eq!(jobs, 0, "figs re-executed design points runner stored");
    let c = svc.counters();
    assert_eq!((c.misses, c.writes), (0, 0), "counters: {c:?}");
    assert_eq!(fig, run_fig06(&SimService::disabled()).0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_answers_figs_design_points_from_the_store() {
    let dir = temp_dir("figs-serve");
    run_fig06(&SimService::open(&dir).expect("open service"));

    let req = BatchRequest {
        id: "cross-tool".into(),
        jobs: fig06_matrix().expand(),
    };
    let svc = SimService::open(&dir).expect("open service");
    let lines = execute_batch(&req, &svc, 2);
    assert_eq!(lines.len(), req.jobs.len());
    for line in &lines {
        assert_eq!(
            line.get("source").and_then(Json::as_str),
            Some("store"),
            "{}",
            line.compact()
        );
    }
    assert_eq!(svc.counters().misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
