//! Scheme-registry integration tests: the boxed `SchemeKind::build` path
//! must be a faithful stand-in for the historical generic constructions —
//! identical `SimStats` on golden workloads — and presets must compose
//! with the registry exactly as the old hand-wired binaries did.

use lvp_json::ToJson;
use lvp_uarch::{simulate, Core, NoVp, SimConfig};

/// Acceptance: `Core<Dlvp<Pap>>` (generic, statically dispatched) and
/// `Core<Box<dyn VpScheme>>` (registry-built) produce identical `SimStats`
/// on a golden workload — the virtual-call seam changes nothing observable.
#[test]
fn generic_and_boxed_dlvp_are_stat_identical() {
    let cfg = SimConfig::default();
    for workload in ["aifirf", "perlbmk"] {
        let t = lvp_workloads::by_name(workload)
            .expect("golden workload")
            .trace(20_000);
        let generic = Core::new(cfg.core.clone(), dlvp::dlvp_default()).run(&t);
        let boxed = Core::new(cfg.core.clone(), dlvp::SchemeKind::Dlvp.build(&cfg)).run(&t);
        assert_eq!(generic, boxed, "{workload}: boxed dispatch changed stats");
        assert_eq!(
            generic.to_json().pretty(),
            boxed.to_json().pretty(),
            "{workload}: serialized stats differ"
        );
    }
}

/// Every registered scheme, D-VTAGE included, built boxed, matches its
/// historical generic constructor under the paper-default config.
#[test]
fn every_scheme_boxed_matches_generic() {
    use dlvp::SchemeKind;
    let cfg = SimConfig::default();
    let t = lvp_workloads::by_name("nat")
        .expect("workload")
        .trace(12_000);
    for kind in SchemeKind::all().into_iter().chain([SchemeKind::Dvtage]) {
        let boxed = simulate(&t, kind.build(&cfg));
        let generic = match kind {
            SchemeKind::Baseline => simulate(&t, NoVp),
            SchemeKind::Dlvp => simulate(&t, dlvp::dlvp_default()),
            SchemeKind::Cap => simulate(&t, dlvp::dlvp_with_cap()),
            SchemeKind::Vtage => simulate(&t, dlvp::Vtage::paper_default()),
            SchemeKind::Tournament => simulate(&t, dlvp::Tournament::new()),
            SchemeKind::Dvtage => simulate(&t, dlvp::Dvtage::paper_default()),
        };
        assert_eq!(generic, boxed, "{}: boxed path diverged", kind.name());
    }
}

/// Presets compose with the registry: an ablation preset built through
/// `SchemeKind::build` really carries its override, on both the core side
/// (recovery mode, front-end width) and the scheme side (FPC vector).
#[test]
fn presets_flow_through_the_registry() {
    use dlvp::SchemeKind;
    let t = lvp_workloads::by_name("viterbi")
        .expect("workload")
        .trace(20_000);

    let replay = SimConfig::preset("oracle_replay").expect("preset");
    let s = Core::new(replay.core.clone(), SchemeKind::Cap.build(&replay)).run(&t);
    assert_eq!(s.vp_flushes, 0, "oracle replay must never flush");

    let default = SimConfig::default();
    let base = Core::new(default.core.clone(), SchemeKind::Dlvp.build(&default)).run(&t);

    // Scheme-side override: {1} FPC saturates after one observation, so
    // DLVP must predict strictly more loads than the {1,1/2,1/4} default.
    let fpc1 = SimConfig::preset("fpc_1").expect("preset");
    let eager = Core::new(fpc1.core.clone(), SchemeKind::Dlvp.build(&fpc1)).run(&t);
    assert!(
        eager.vp_predicted > base.vp_predicted,
        "single-observation FPC must raise coverage ({} vs {})",
        eager.vp_predicted,
        base.vp_predicted
    );

    // Core-side override: halving the front-end width must cost cycles.
    let narrow = SimConfig::preset("narrow_frontend").expect("preset");
    let slow = Core::new(narrow.core.clone(), SchemeKind::Dlvp.build(&narrow)).run(&t);
    assert!(
        slow.cycles > base.cycles,
        "a 2-wide front end must be slower than 4-wide ({} vs {})",
        slow.cycles,
        base.cycles
    );
}
