//! The declarative figure/table registry: every experiment the paper
//! reproduction reports, encoded as data and executed by the `figs` CLI.
//!
//! Each [`ExperimentSpec`] declares (a) the simulations it needs, as
//! `(workload, scheme, preset)` triples — [`SimRequest`] — and (b) a pure
//! `render` function that formats the collected [`ResultSet`] into the
//! byte-exact text the retired one-binary-per-figure harnesses printed.
//! [`run_specs`] dedups the requests across every selected spec and hands
//! the unique simulations to [`simulate_cached`], which streams each
//! workload's records from the emulator once per `(workload, budget)` and
//! feeds them to every simulation on it, on the deterministic worker pool
//! — so `figs --all` simulates each design point exactly once even when
//! several figures share it, builds no trace, and its output is
//! bit-identical for any worker count. The trace-characterization specs
//! (Figs. 1, 2 and 4, Table 3) read a [`WorkloadProfile`] per workload,
//! taken in one more streaming pass.
//!
//! Configurations are never constructed ad hoc here: every request names a
//! `SimConfig` preset, so the full set of design points the evaluation
//! explores is readable from `SimConfig::preset_names()` plus this file.

use crate::analysis::analyze_workload;
use crate::experiments::{SchemeKind, SchemeOutcome};
use crate::report;
use crate::runner::par_map_metered;
use crate::service::{simulate_cached, SimPoint};
use crate::telemetry::Progress;
use dlvp::{
    AddrEval, AddrWidth, AddressPredictor, AptLayout, Cap, CapConfig, DlvpConfig, Pap, PapConfig,
    Vtage,
};
use lvp_analysis::{EdgeKind, XvalConfig};
use lvp_energy::{PrfComparison, SramMacro};
use lvp_obs::{NullPhases, PhaseSink};
use lvp_store::SimService;
use lvp_trace::{
    repeat::THRESHOLDS, ConflictProfile, ConflictProfiler, RepeatProfile, RepeatProfiler,
};
use lvp_uarch::{CoreConfig, SimConfig, SimStats};
use std::collections::{HashMap, HashSet};

/// Appends one `println!`-equivalent line to a report string.
macro_rules! outln {
    ($o:ident) => {{
        $o.push('\n');
    }};
    ($o:ident, $($arg:tt)*) => {{
        $o.push_str(&format!($($arg)*));
        $o.push('\n');
    }};
}

// ---------------------------------------------------------------------------
// The request/result model
// ---------------------------------------------------------------------------

/// One simulation a spec needs: `workload` under `scheme`, configured by
/// the named `SimConfig` preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimRequest {
    pub workload: &'static str,
    pub scheme: SchemeKind,
    pub preset: &'static str,
}

/// One figure/table/ablation, as data.
pub struct ExperimentSpec {
    /// Spec name — also the old binary's name and the `results/<name>.txt`
    /// file stem.
    pub name: &'static str,
    /// One-line description for `figs --list`.
    pub title: &'static str,
    /// Whether the render reads every workload's [`WorkloadProfile`]: the
    /// trace-characterization figures need them even though they simulate
    /// nothing.
    pub profiles: bool,
    /// The simulations this spec draws from.
    pub sims: fn() -> Vec<SimRequest>,
    /// Formats the results — byte-identical to the retired binary's stdout.
    pub render: fn(&ResultSet) -> String,
}

/// The CAP confidence thresholds Figure 4 sweeps.
const CAP_CONFIDENCES: [u32; 6] = [3, 8, 16, 24, 32, 64];

/// Everything the trace-characterization renders (Figs. 1, 2 and 4, Table
/// 3) read about one workload, taken from one pass over its records.
pub struct WorkloadProfile {
    /// Load–store conflicts, split at a 96-instruction in-flight window
    /// (Figure 1).
    pub conflicts: ConflictProfile,
    /// Address and value repeatability (Figure 2).
    pub repeats: RepeatProfile,
    /// Standalone PAP at its paper default (Figure 4).
    pub pap: AddrEval,
    /// Standalone CAP at each confidence Figure 4 sweeps: 3, 8, 16, 24, 32
    /// and 64.
    pub cap: [AddrEval; CAP_CONFIDENCES.len()],
    /// The instruction mix (Table 3).
    pub instructions: u64,
    pub loads: u64,
    pub stores: u64,
    pub branches: u64,
}

impl WorkloadProfile {
    /// Streams `workload`'s first `budget` records once through every
    /// consumer, storing no record.
    fn of(workload: &lvp_workloads::Workload, budget: u64) -> WorkloadProfile {
        let mut conflicts = ConflictProfiler::new(INFLIGHT_WINDOW);
        let mut repeats = RepeatProfiler::default();
        let (mut pap, mut pap_eval) = (Pap::paper_default(), AddrEval::default());
        let mut caps = CAP_CONFIDENCES.map(|c| (Cap::with_confidence(c), AddrEval::default()));
        let (mut instructions, mut loads, mut stores, mut branches) = (0, 0, 0, 0);
        for rec in workload.records(budget) {
            conflicts.push(&rec);
            repeats.push(&rec);
            pap_eval.observe(&mut pap, &rec);
            for (cap, eval) in &mut caps {
                eval.observe(cap, &rec);
            }
            instructions += 1;
            loads += u64::from(rec.inst.is_load());
            stores += u64::from(rec.inst.is_store());
            branches += u64::from(rec.inst.is_branch());
        }
        WorkloadProfile {
            conflicts: conflicts.finish(),
            repeats: repeats.finish(),
            pap: pap_eval,
            cap: caps.map(|(_, eval)| eval),
            instructions,
            loads,
            stores,
            branches,
        }
    }
}

/// Everything the render functions read: the per-workload profiles plus
/// every requested simulation's output, keyed by request.
pub struct ResultSet {
    budget: u64,
    profiles: HashMap<&'static str, WorkloadProfile>,
    sims: HashMap<SimRequest, SchemeOutcome>,
}

impl ResultSet {
    /// The per-workload instruction budget this set was run at.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// One workload's profile.
    ///
    /// # Panics
    ///
    /// Panics if no selected spec set `profiles`.
    pub fn profile(&self, workload: &str) -> &WorkloadProfile {
        self.profiles
            .get(workload)
            .unwrap_or_else(|| panic!("spec did not request a profile of '{workload}'"))
    }

    /// One simulation's outcome.
    ///
    /// # Panics
    ///
    /// Panics if the spec's `sims` did not request this combination.
    pub fn outcome(
        &self,
        workload: &'static str,
        scheme: SchemeKind,
        preset: &'static str,
    ) -> &SchemeOutcome {
        let req = SimRequest {
            workload,
            scheme,
            preset,
        };
        self.sims.get(&req).unwrap_or_else(|| {
            panic!(
                "spec did not request ({workload}, {}, {preset})",
                scheme.name()
            )
        })
    }

    /// One simulation's stats (see [`ResultSet::outcome`]).
    pub fn stats(
        &self,
        workload: &'static str,
        scheme: SchemeKind,
        preset: &'static str,
    ) -> &SimStats {
        &self.outcome(workload, scheme, preset).stats
    }
}

/// One rendered spec: the text that belongs in `results/<name>.txt`.
pub struct RenderedSpec {
    pub name: &'static str,
    pub text: String,
}

/// Executes the selected specs: dedups their simulation requests, runs
/// the unique simulations through [`simulate_cached`] (one emulator pass
/// per workload), profiles every workload when a spec reads profiles, and
/// renders every spec from the shared [`ResultSet`].
///
/// Deterministic end to end: request order is first-seen spec order, the
/// pool writes results into per-index slots, and renders are pure — the
/// returned texts are byte-identical for any `workers >= 1`.
pub fn run_specs(specs: &[&ExperimentSpec], budget: u64, workers: usize) -> Vec<RenderedSpec> {
    run_specs_with(specs, budget, workers, &NullPhases, &Progress::off())
}

/// [`run_specs`] with host telemetry: the profile pass runs under a lane-0
/// `profile` span with one `profile:<workload>` span each, the deduped
/// simulations under a `simulate` span with one `stream:<workload>` span
/// per stream (charged with its simulations' cycles, instructions and
/// count), and the renders, also on the pool, under a `render` span with
/// one `render:<spec>` span each.
/// Rendered texts are byte-identical to [`run_specs`]'s.
pub fn run_specs_with<P: PhaseSink>(
    specs: &[&ExperimentSpec],
    budget: u64,
    workers: usize,
    phases: &P,
    progress: &Progress,
) -> Vec<RenderedSpec> {
    run_specs_serviced(
        specs,
        budget,
        workers,
        phases,
        progress,
        &SimService::disabled(),
    )
}

/// [`run_specs_with`] behind a result store: every deduped request is
/// looked up before the pool runs, only misses execute (so a fully warm
/// store re-renders everything with **zero** sim jobs), and computed
/// outputs are recorded for the next run. Rendered texts are
/// byte-identical whether the store is cold, warm, or disabled, because
/// store payloads round-trip losslessly.
pub fn run_specs_serviced<P: PhaseSink>(
    specs: &[&ExperimentSpec],
    budget: u64,
    workers: usize,
    phases: &P,
    progress: &Progress,
    service: &SimService,
) -> Vec<RenderedSpec> {
    let mut requests: Vec<SimRequest> = Vec::new();
    let mut seen: HashSet<SimRequest> = HashSet::new();
    let mut duplicates: u64 = 0;
    for spec in specs {
        for req in (spec.sims)() {
            if seen.insert(req) {
                requests.push(req);
            } else {
                duplicates += 1;
            }
        }
    }
    service.note_deduped(duplicates);

    // Trace-characterization renders read every workload's profile, taken
    // in a streaming pass of its own; the result store keeps simulations
    // only.
    let mut profiles = HashMap::new();
    if specs.iter().any(|s| s.profiles) {
        let workloads = lvp_workloads::all();
        let taken = phases.time(0, "profile", || {
            par_map_metered(
                &workloads,
                workers,
                phases,
                &Progress::off(),
                |w| format!("profile:{}", w.name),
                |p: &WorkloadProfile| (0, p.instructions, 0),
                |w| WorkloadProfile::of(w, budget),
            )
        });
        profiles = workloads.iter().map(|w| w.name).zip(taken).collect();
    }
    let results = simulate_cached(
        service,
        &requests,
        |req| SimPoint {
            workload: req.workload,
            budget,
            scheme: req.scheme,
            config: SimConfig::preset(req.preset).expect("spec requests name registered presets"),
        },
        workers,
        phases,
        progress,
    )
    .results;
    let set = ResultSet {
        budget,
        profiles,
        sims: requests.iter().copied().zip(results).collect(),
    };
    // Renders are pure functions of the set: they run on the pool too, one
    // `render:<spec>` span each, and land in spec order.
    phases.time(0, "render", || {
        par_map_metered(
            specs,
            workers,
            phases,
            &Progress::off(),
            |spec| format!("render:{}", spec.name),
            |_| (0, 0, 0),
            |spec| RenderedSpec {
                name: spec.name,
                text: (spec.render)(&set),
            },
        )
    })
}

// ---------------------------------------------------------------------------
// Request builders
// ---------------------------------------------------------------------------

const BASE: SchemeKind = SchemeKind::Baseline;
const DLVP: SchemeKind = SchemeKind::Dlvp;
const CAP: SchemeKind = SchemeKind::Cap;
const VTAGE: SchemeKind = SchemeKind::Vtage;
const DVTAGE: SchemeKind = SchemeKind::Dvtage;
const TOURNAMENT: SchemeKind = SchemeKind::Tournament;

fn no_sims() -> Vec<SimRequest> {
    Vec::new()
}

/// Every workload crossed with the given `(scheme, preset)` pairs.
fn across_workloads(pairs: &[(SchemeKind, &'static str)]) -> Vec<SimRequest> {
    let mut v = Vec::with_capacity(lvp_workloads::names().len() * pairs.len());
    for name in lvp_workloads::names() {
        for &(scheme, preset) in pairs {
            v.push(SimRequest {
                workload: name,
                scheme,
                preset,
            });
        }
    }
    v
}

/// One workload's baseline and scheme outcomes, all on the `default`
/// preset, borrowed from the pooled results.
struct Row<'a> {
    workload: &'static str,
    baseline: &'a SchemeOutcome,
    schemes: Vec<&'a SchemeOutcome>,
}

impl Row<'_> {
    /// Speedup of scheme `i` over the baseline.
    fn speedup(&self, i: usize) -> f64 {
        self.schemes[i].stats.speedup_over(&self.baseline.stats)
    }
}

fn row_from<'a>(
    set: &'a ResultSet,
    w: &lvp_workloads::Workload,
    schemes: &[SchemeKind],
) -> Row<'a> {
    Row {
        workload: w.name,
        baseline: set.outcome(w.name, SchemeKind::Baseline, "default"),
        schemes: schemes
            .iter()
            .map(|&k| set.outcome(w.name, k, "default"))
            .collect(),
    }
}

/// The standard experiment header.
fn header(o: &mut String, id: &str, title: &str, budget: u64) {
    o.push_str("================================================================\n");
    o.push_str(&format!("{id}: {title}\n"));
    o.push_str(&format!(
        "per-workload budget: {budget} dynamic instructions\n"
    ));
    o.push_str("================================================================\n");
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

/// Instructions a store stays "in flight" after fetch in a smoothly running
/// Table 4 core (fetch-to-commit depth × fetch width), used as the
/// committed/in-flight split point.
const INFLIGHT_WINDOW: u64 = 96;

fn fig01_render(set: &ResultSet) -> String {
    let mut o = String::new();
    header(
        &mut o,
        "fig01_conflicts",
        "loads conflicting with stores (Figure 1)",
        set.budget(),
    );
    outln!(
        o,
        "{:<14} {:>10} {:>12} {:>12} {:>10}",
        "workload",
        "loads",
        "committed",
        "in-flight",
        "total"
    );
    let mut total = ConflictProfile::default();
    let (mut cf, mut inf) = (Vec::new(), Vec::new());
    for w in lvp_workloads::all() {
        let p = set.profile(w.name).conflicts;
        cf.push(p.committed_fraction());
        inf.push(p.inflight_fraction());
        outln!(
            o,
            "{:<14} {:>10} {:>12} {:>12} {:>10}",
            w.name,
            p.loads,
            report::pct(p.committed_fraction()),
            report::pct(p.inflight_fraction()),
            report::pct(p.total_fraction()),
        );
        total.loads += p.loads;
        total.committed_conflicts += p.committed_conflicts;
        total.inflight_conflicts += p.inflight_conflicts;
    }
    outln!(
        o,
        "----------------------------------------------------------------"
    );
    outln!(
        o,
        "AVERAGE       {:>10} {:>12} {:>12} {:>10}",
        total.loads,
        report::pct(total.committed_fraction()),
        report::pct(total.inflight_fraction()),
        report::pct(total.total_fraction()),
    );
    let mc = report::mean(&cf);
    let mi = report::mean(&inf);
    outln!(
        o,
        "\nper-workload mean: committed {} in-flight {}",
        report::pct(mc),
        report::pct(mi)
    );
    outln!(
        o,
        "committed share of all conflicts: {} (pooled {})  — paper: ~67%,\nthe share address prediction eliminates",
        report::pct(mc / (mc + mi).max(1e-12)),
        report::pct(total.committed_share())
    );
    o
}

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

fn fig02_render(set: &ResultSet) -> String {
    let mut o = String::new();
    header(
        &mut o,
        "fig02_repeatability",
        "address vs value repeatability (Figure 2)",
        set.budget(),
    );
    let mut avg = RepeatProfile::default();
    for w in lvp_workloads::all() {
        avg.merge(&set.profile(w.name).repeats);
    }
    outln!(
        o,
        "{:<10} {:>12} {:>12}",
        "repeats>=",
        "addresses",
        "values"
    );
    for (i, t) in THRESHOLDS.iter().enumerate() {
        outln!(
            o,
            "{:<10} {:>12} {:>12}   {}",
            t,
            report::pct(avg.addr_fraction(i)),
            report::pct(avg.value_fraction(i)),
            report::bar(avg.addr_fraction(i), 1.0, 30),
        );
    }
    let i8 = RepeatProfile::threshold_index(8).expect("threshold 8 registered");
    let i64 = RepeatProfile::threshold_index(64).expect("threshold 64 registered");
    outln!(
        o,
        "\nloads with addresses repeating >=8 times:  {}  (paper: 91%)",
        report::pct(avg.addr_fraction(i8))
    );
    outln!(
        o,
        "loads with values    repeating >=64 times: {}  (paper: 80%)",
        report::pct(avg.value_fraction(i64))
    );
    outln!(
        o,
        "(the gap is the coverage headroom PAP's confidence-8 buys, paper §1)"
    );
    o
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

fn fig03_render(_set: &ResultSet) -> String {
    let mut o = String::new();
    outln!(
        o,
        r#"
Figure 3: pipeline with support for value prediction and DLVP
==============================================================

           ┌────────────────────────────────────────────┐   flush on value
           │ ①  Address Prediction (PAP / APT + LSCD)   │   misprediction
           │    dlvp::pap, dlvp::lscd                   │        ▲
           ▼                                            │        │
 Fetch ──► Decode ──► Rename ──► RF access ──► Allocate ─► Issue ─► Execute ─► Commit
 (5 cy)    (3 cy)      │  ▲                                │          │
   │                   │  │ ④ predicted values             │          │ ⑥ validate +
   │ ②  predicted      │  │    (by rename)                 │          │    always train APT
   │    addresses      │  │                                │          │    lvp-uarch verdict
   ▼                   │  │                                │          ▼
 ┌──────────────────┐  │ ┌┴──────────────────────┐   ③ on LS-lane   second
 │ PAQ (32, N = 4)  │──┼─│ VPE: PVT 32 × 2r/2w,  │   bubbles:       cache
 │ dlvp::paq        │  │ │ predicted bits        │   probe L1D      access
 └──────────────────┘  │ │ lvp-uarch::vpe        │   (1 way)        │
           │           │ └───────────────────────┘   lvp-mem        │
           │ ⑤ on probe miss: prefetch                              │
           ▼                                                        ▼
      lvp-mem::MemoryHierarchy (64KB L1D 4-way / 512KB L2 / 8MB L3 / TLB)

Legend (paper §3.2.2): ① predict load addresses in fetch stage 1 using
load-path history; ② deposit in the Predicted Address Queue; ③ probe the
data cache opportunistically on load/store-lane bubbles, dropping entries
after N=4 cycles; ④ deliver values to the Value Prediction Engine by
rename; ⑤ turn probe misses into prefetches; ⑥ validate at execute —
a mismatch flushes after a 1-cycle confirm penalty, and an in-flight-store
conflict inserts the load into the 4-entry LSCD.
"#
    );
    let c = CoreConfig::default();
    outln!(
        o,
        "pipeline depth check: fetch-to-execute = {} cycles (Table 4: 13)",
        c.fetch_to_execute()
    );
    o
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

fn fig04_render(set: &ResultSet) -> String {
    let mut o = String::new();
    header(
        &mut o,
        "fig04_addr_pred",
        "PAP vs CAP standalone (Figure 4)",
        set.budget(),
    );
    let profiles: Vec<&WorkloadProfile> = lvp_workloads::all()
        .iter()
        .map(|w| set.profile(w.name))
        .collect();

    let mut pap_total = AddrEval::default();
    for p in &profiles {
        pap_total.merge(&p.pap);
    }
    outln!(
        o,
        "{:<22} {:>10} {:>10}",
        "predictor",
        "coverage",
        "accuracy"
    );
    outln!(
        o,
        "{:<22} {:>10} {:>10}   (paper: 37% / 99.1%)",
        "PAP (confidence 8)",
        report::pct(pap_total.coverage()),
        report::pct(pap_total.accuracy())
    );
    for (i, conf) in CAP_CONFIDENCES.into_iter().enumerate() {
        let mut cap_total = AddrEval::default();
        for p in &profiles {
            cap_total.merge(&p.cap[i]);
        }
        let note = match conf {
            3 => "  (paper: CAP's original design point)",
            8 => "  (paper: 29.5% / 97.7%)",
            64 => "  (paper: 24% coverage at PAP-level accuracy)",
            _ => "",
        };
        outln!(
            o,
            "{:<22} {:>10} {:>10} {}",
            format!("CAP (confidence {conf})"),
            report::pct(cap_total.coverage()),
            report::pct(cap_total.accuracy()),
            note
        );
    }
    outln!(
        o,
        "\nExpected shape: CAP accuracy rises with confidence while its"
    );
    outln!(
        o,
        "coverage falls; PAP reaches high accuracy at low confidence."
    );
    o
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

fn fig05_sims() -> Vec<SimRequest> {
    across_workloads(&[
        (BASE, "default"),
        (DLVP, "no_dlvp_prefetch"),
        (DLVP, "default"),
    ])
}

fn fig05_render(set: &ResultSet) -> String {
    let mut o = String::new();
    header(
        &mut o,
        "fig05_prefetch",
        "DLVP prefetch on/off (Figure 5)",
        set.budget(),
    );
    outln!(
        o,
        "{:<14} {:>12} {:>12} {:>12}",
        "workload",
        "no-prefetch",
        "prefetch",
        "loads prefetched"
    );
    let (mut s_off, mut s_on, mut frac) = (Vec::new(), Vec::new(), Vec::new());
    for w in lvp_workloads::all() {
        let base = &set.outcome(w.name, SchemeKind::Baseline, "default").stats;
        let off = set.outcome(w.name, SchemeKind::Dlvp, "no_dlvp_prefetch");
        let on = set.outcome(w.name, SchemeKind::Dlvp, "default");
        let pf = on.extra_counter("prefetches").unwrap_or(0.0);
        let f = pf / base.loads.max(1) as f64;
        outln!(
            o,
            "{:<14} {:>12} {:>12} {:>12}",
            w.name,
            report::speedup_pct(off.stats.speedup_over(base)),
            report::speedup_pct(on.stats.speedup_over(base)),
            report::pct(f)
        );
        s_off.push(off.stats.speedup_over(base));
        s_on.push(on.stats.speedup_over(base));
        frac.push(f);
    }
    outln!(
        o,
        "----------------------------------------------------------------"
    );
    outln!(
        o,
        "AVERAGE        {:>12} {:>12} {:>12}",
        report::speedup_pct(report::geomean(&s_off)),
        report::speedup_pct(report::geomean(&s_on)),
        report::pct(report::mean(&frac))
    );
    outln!(
        o,
        "\n(paper: the prefetched fraction is small — 0.3% on average —"
    );
    outln!(o, "so enabling prefetch adds only ~0.1% average speedup)");
    o
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

fn fig06_sims() -> Vec<SimRequest> {
    across_workloads(&[
        (BASE, "default"),
        (CAP, "default"),
        (VTAGE, "default"),
        (DLVP, "default"),
    ])
}

fn fig06_render(set: &ResultSet) -> String {
    let mut o = String::new();
    header(
        &mut o,
        "fig06_comparison",
        "CAP vs VTAGE vs DLVP (Figure 6)",
        set.budget(),
    );
    let rows: Vec<Row> = lvp_workloads::all()
        .iter()
        .map(|w| {
            row_from(
                set,
                w,
                &[SchemeKind::Cap, SchemeKind::Vtage, SchemeKind::Dlvp],
            )
        })
        .collect();

    outln!(
        o,
        "-- (a) speedup over the no-VP baseline --------------------------"
    );
    outln!(
        o,
        "{:<14} {:>9} {:>9} {:>9}",
        "workload",
        "CAP",
        "VTAGE",
        "DLVP"
    );
    let mut sp = [Vec::new(), Vec::new(), Vec::new()];
    for r in &rows {
        outln!(
            o,
            "{:<14} {:>9} {:>9} {:>9}",
            r.workload,
            report::speedup_pct(r.speedup(0)),
            report::speedup_pct(r.speedup(1)),
            report::speedup_pct(r.speedup(2))
        );
        for (i, col) in sp.iter_mut().enumerate() {
            col.push(r.speedup(i));
        }
    }
    outln!(
        o,
        "AVERAGE        {:>9} {:>9} {:>9}   (paper: +2.3% / +2.1% / +4.8%)",
        report::speedup_pct(report::geomean(&sp[0])),
        report::speedup_pct(report::geomean(&sp[1])),
        report::speedup_pct(report::geomean(&sp[2]))
    );

    outln!(
        o,
        "\n-- (b) coverage of dynamic loads --------------------------------"
    );
    outln!(
        o,
        "{:<14} {:>9} {:>9} {:>9}",
        "workload",
        "CAP",
        "VTAGE",
        "DLVP"
    );
    let mut cov = [0.0f64; 3];
    for r in &rows {
        outln!(
            o,
            "{:<14} {:>9} {:>9} {:>9}",
            r.workload,
            report::pct(r.schemes[0].coverage),
            report::pct(r.schemes[1].coverage),
            report::pct(r.schemes[2].coverage)
        );
        for (i, acc) in cov.iter_mut().enumerate() {
            *acc += r.schemes[i].coverage;
        }
    }
    let n = rows.len() as f64;
    outln!(
        o,
        "AVERAGE        {:>9} {:>9} {:>9}   (paper: 23.8% / 29.6% / 31.1%)",
        report::pct(cov[0] / n),
        report::pct(cov[1] / n),
        report::pct(cov[2] / n)
    );

    outln!(
        o,
        "\n-- (c) core energy normalized to baseline ------------------------"
    );
    let mut en = [Vec::new(), Vec::new(), Vec::new()];
    for r in &rows {
        let base_e = r.baseline.energy();
        for (i, col) in en.iter_mut().enumerate() {
            col.push(r.schemes[i].energy() / base_e);
        }
    }
    for (i, name) in ["CAP", "VTAGE", "DLVP"].iter().enumerate() {
        outln!(o, "{:<14} {:.4}x", name, report::mean(&en[i]));
    }
    outln!(
        o,
        "(paper: DLVP's average core energy is on par with VTAGE's —"
    );
    outln!(o, " the speedup offsets the double cache access)");

    outln!(
        o,
        "\n-- (d) predictor area / access energy normalized to PAP ----------"
    );
    let pap = AptLayout::of(PapConfig::default(), 4);
    let pap_m = SramMacro::new(pap.total_budget_bits(), 1, 1);
    let cap = Cap::new(CapConfig::default());
    let cap_m = SramMacro::new(cap.storage_bits(), 1, 1);
    let vt = Vtage::paper_default();
    let vt_m = SramMacro::new(vt.storage_bits(), 1, 1);
    outln!(
        o,
        "{:<14} {:>8} {:>12} {:>12}",
        "predictor",
        "area",
        "read-energy",
        "write-energy"
    );
    for (name, m) in [("PAP", &pap_m), ("CAP", &cap_m), ("VTAGE", &vt_m)] {
        outln!(
            o,
            "{:<14} {:>8.2} {:>12.2} {:>12.2}",
            name,
            m.area() / pap_m.area(),
            m.read_energy() / pap_m.read_energy(),
            m.write_energy() / pap_m.write_energy()
        );
    }
    outln!(
        o,
        "(budgets: PAP 67k bits < CAP 95k bits; VTAGE 62.3k bits — Table 4)"
    );
    o
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// Figure 7's six VTAGE flavours: display label → `SimConfig` preset.
const FIG07_VARIANTS: &[(&str, &str)] = &[
    ("vanilla, loads-only", "vtage_vanilla_loads"),
    ("vanilla, all-instr", "vtage_vanilla_all"),
    ("dynamic filter, loads-only", "vtage_dynamic_loads"),
    ("dynamic filter, all-instr", "vtage_dynamic_all"),
    ("static filter, loads-only", "vtage_static_loads"),
    ("static filter, all-instr", "vtage_static_all"),
];

fn fig07_sims() -> Vec<SimRequest> {
    let mut pairs: Vec<(SchemeKind, &'static str)> = vec![(BASE, "default")];
    for &(_, preset) in FIG07_VARIANTS {
        pairs.push((VTAGE, preset));
    }
    across_workloads(&pairs)
}

fn fig07_render(set: &ResultSet) -> String {
    let mut o = String::new();
    header(
        &mut o,
        "fig07_vtage",
        "VTAGE filter/target study (Figure 7)",
        set.budget(),
    );
    outln!(
        o,
        "{:<30} {:>9} {:>10} {:>10}",
        "configuration",
        "speedup",
        "coverage",
        "accuracy"
    );
    let workloads = lvp_workloads::all();
    for &(name, preset) in FIG07_VARIANTS {
        let (mut sp, mut cov, mut pred, mut corr) = (Vec::new(), 0.0, 0u64, 0u64);
        for w in &workloads {
            let base = set.stats(w.name, BASE, "default");
            let s = set.stats(w.name, VTAGE, preset);
            sp.push(s.speedup_over(base));
            cov += s.coverage();
            pred += s.vp_predicted;
            corr += s.vp_correct;
        }
        outln!(
            o,
            "{:<30} {:>9} {:>10} {:>10}",
            name,
            report::speedup_pct(report::geomean(&sp)),
            report::pct(cov / workloads.len() as f64),
            report::pct(if pred == 0 {
                0.0
            } else {
                corr as f64 / pred as f64
            })
        );
    }
    outln!(
        o,
        "\nExpected shape (paper): filters beat vanilla by a wide margin;"
    );
    outln!(
        o,
        "static avoids the dynamic filter's training mispredictions. The"
    );
    outln!(
        o,
        "paper's loads-only > all-instructions gap comes from table pressure"
    );
    outln!(
        o,
        "(thousands of hot instructions vs an 8KB budget); our kernels'"
    );
    outln!(
        o,
        "small instruction populations do not reproduce that pressure, so"
    );
    outln!(
        o,
        "the two targeting modes land within noise of each other here."
    );
    o
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

fn fig08_sims() -> Vec<SimRequest> {
    across_workloads(&[
        (BASE, "default"),
        (VTAGE, "default"),
        (DLVP, "default"),
        (TOURNAMENT, "default"),
    ])
}

fn fig08_render(set: &ResultSet) -> String {
    let mut o = String::new();
    header(
        &mut o,
        "fig08_tournament",
        "DLVP + VTAGE tournament (Figure 8)",
        set.budget(),
    );
    let schemes = [SchemeKind::Vtage, SchemeKind::Dlvp, SchemeKind::Tournament];
    let (mut sp, mut cov) = ([Vec::new(), Vec::new(), Vec::new()], [0.0f64; 3]);
    let (mut from_dlvp, mut from_vtage) = (0.0, 0.0);
    let mut n = 0.0;
    for w in lvp_workloads::all() {
        let row = row_from(set, &w, &schemes);
        for i in 0..3 {
            sp[i].push(row.speedup(i));
            cov[i] += row.schemes[i].coverage;
        }
        from_dlvp += row.schemes[2]
            .extra_counter("tournament_from_dlvp")
            .unwrap_or(0.0);
        from_vtage += row.schemes[2]
            .extra_counter("tournament_from_vtage")
            .unwrap_or(0.0);
        n += 1.0;
    }
    outln!(
        o,
        "-- (a) average speedup and coverage ------------------------------"
    );
    outln!(o, "{:<14} {:>9} {:>10}", "scheme", "speedup", "coverage");
    for (i, name) in ["VTAGE", "DLVP", "DLVP+VTAGE"].iter().enumerate() {
        outln!(
            o,
            "{:<14} {:>9} {:>10}",
            name,
            report::speedup_pct(report::geomean(&sp[i])),
            report::pct(cov[i] / n)
        );
    }
    outln!(
        o,
        "\n(paper: the combined coverage rises only slightly over the better"
    );
    outln!(o, " component — the two schemes capture overlapping loads)");

    outln!(
        o,
        "\n-- (b) final-prediction provider breakdown ------------------------"
    );
    let total = from_dlvp + from_vtage;
    if total > 0.0 {
        outln!(o, "DLVP provided:  {}", report::pct(from_dlvp / total));
        outln!(o, "VTAGE provided: {}", report::pct(from_vtage / total));
        outln!(o, "(paper: DLVP provides more — 18.2% vs 16.1% of loads)");
    } else {
        outln!(o, "no predictions made");
    }
    o
}

// ---------------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------------

/// The paper-named benchmarks Figure 9 singles out.
const FIG09_WORKLOADS: &[&str] = &["bzip2", "pdfjs", "gcc", "soplex", "avmshell"];

fn fig09_sims() -> Vec<SimRequest> {
    let mut v = Vec::new();
    for &workload in FIG09_WORKLOADS {
        for scheme in [BASE, VTAGE, DLVP] {
            v.push(SimRequest {
                workload,
                scheme,
                preset: "default",
            });
        }
    }
    v
}

fn fig09_render(set: &ResultSet) -> String {
    let mut o = String::new();
    header(
        &mut o,
        "fig09_selected",
        "speedup vs coverage decoupling (Figure 9)",
        set.budget(),
    );
    outln!(
        o,
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "workload",
        "spd-VTAGE",
        "spd-DLVP",
        "cov-VTAGE",
        "cov-DLVP",
        "tlbm-VTAGE",
        "tlbm-DLVP"
    );
    for name in FIG09_WORKLOADS {
        let w = lvp_workloads::by_name(name).expect("paper-named workload");
        let row = row_from(set, &w, &[SchemeKind::Vtage, SchemeKind::Dlvp]);
        let tlb = |s: &SimStats| s.mem.tlb.misses as f64 / (s.mem.tlb.accesses.max(1)) as f64;
        outln!(
            o,
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12}",
            name,
            report::speedup_pct(row.speedup(0)),
            report::speedup_pct(row.speedup(1)),
            report::pct(row.schemes[0].coverage),
            report::pct(row.schemes[1].coverage),
            report::pct(tlb(&row.schemes[0].stats)),
            report::pct(tlb(&row.schemes[1].stats)),
        );
    }
    outln!(
        o,
        "\n(paper's observations: accuracy and TLB second-order effects, not"
    );
    outln!(
        o,
        " coverage, separate the schemes on these benchmarks; DLVP probes"
    );
    outln!(
        o,
        " the TLB twice per predicted load, visible in the miss-rate column)"
    );
    o
}

// ---------------------------------------------------------------------------
// Figure 10
// ---------------------------------------------------------------------------

fn fig10_sims() -> Vec<SimRequest> {
    across_workloads(&[
        (BASE, "default"),
        (CAP, "default"),
        (CAP, "oracle_replay"),
        (DLVP, "default"),
        (DLVP, "oracle_replay"),
        (VTAGE, "default"),
        (VTAGE, "oracle_replay"),
    ])
}

fn fig10_render(set: &ResultSet) -> String {
    let mut o = String::new();
    header(
        &mut o,
        "fig10_recovery",
        "flush vs oracle replay (Figure 10)",
        set.budget(),
    );
    outln!(
        o,
        "{:<10} {:>12} {:>14}",
        "scheme",
        "flush",
        "oracle-replay"
    );
    for scheme in [SchemeKind::Cap, SchemeKind::Dlvp, SchemeKind::Vtage] {
        let (mut flush, mut replay) = (Vec::new(), Vec::new());
        for w in lvp_workloads::all() {
            let base = set.stats(w.name, BASE, "default");
            flush.push(set.stats(w.name, scheme, "default").speedup_over(base));
            replay.push(
                set.stats(w.name, scheme, "oracle_replay")
                    .speedup_over(base),
            );
        }
        outln!(
            o,
            "{:<10} {:>12} {:>14}",
            scheme.name(),
            report::speedup_pct(report::geomean(&flush)),
            report::speedup_pct(report::geomean(&replay))
        );
    }
    outln!(
        o,
        "\n(paper: CAP improves most — +2.3% -> +4.2% — because its lower"
    );
    outln!(
        o,
        " accuracy pays the flush penalty often; DLVP and VTAGE, already"
    );
    outln!(o, " above 99% accuracy, gain under 1%)");
    o
}

// ---------------------------------------------------------------------------
// Tables 1–4
// ---------------------------------------------------------------------------

fn table01_render(_set: &ResultSet) -> String {
    let mut o = String::new();
    outln!(o, "Table 1: Address Prediction Table entry layout");
    outln!(o, "================================================");
    for (isa, width) in [("ARMv7", AddrWidth::A32), ("ARMv8", AddrWidth::A49)] {
        let cfg = PapConfig {
            addr_width: width,
            ..PapConfig::default()
        };
        let l = AptLayout::of(cfg, 4);
        outln!(o, "\n{isa}:");
        outln!(
            o,
            "  tag            : {:>3} bits (XOR of load PC and folded load-path history)",
            l.tag_bits
        );
        outln!(o, "  memory address : {:>3} bits", l.addr_bits);
        outln!(
            o,
            "  confidence     : {:>3} bits (FPC, probability vector {{1, 1/2, 1/4}})",
            l.confidence_bits
        );
        outln!(
            o,
            "  size           : {:>3} bits (bytes to read)",
            l.size_bits
        );
        outln!(
            o,
            "  cache way      : {:>3} bits (optional, log2 of L1D associativity)",
            l.way_bits
        );
        outln!(
            o,
            "  budget         : {} entries x {} bits = {}k bits (paper: {}k bits)",
            l.entries,
            l.budget_bits_per_entry(),
            l.total_budget_bits() / 1024,
            if l.addr_bits == 32 { 50 } else { 67 }
        );
    }
    outln!(o, "\n(the ~8KB budget class of the paper's abstract)");
    o
}

fn table02_render(_set: &ResultSet) -> String {
    let mut o = String::new();
    outln!(o, "Table 2: predicted-value communication designs");
    outln!(
        o,
        "(normalized to design #1; 30% of operand traffic predicted)"
    );
    outln!(
        o,
        "============================================================="
    );
    outln!(
        o,
        "{:<30} {:>8} {:>12} {:>13}",
        "design",
        "area",
        "read-energy",
        "write-energy"
    );
    for row in PrfComparison::default().rows() {
        outln!(
            o,
            "{:<30} {:>8.2} {:>12.2} {:>13.2}",
            row.name,
            row.area,
            row.read_energy,
            row.write_energy
        );
    }
    outln!(o, "\npaper's numbers:            area  read  write");
    outln!(o, "  PVT (2rd/2wr)             0.06  0.10  0.07");
    outln!(o, "  Design #1 (8rd/8wr PRF)   1.00  1.00  1.00");
    outln!(o, "  Design #2 (8rd/10wr PRF)  1.16  1.10  1.51");
    outln!(o, "  Design #3 (#1 + PVT)      1.06  0.80  1.07");
    outln!(
        o,
        "\nThe paper adopts design #3 (we model the same choice)."
    );
    o
}

fn table03_render(set: &ResultSet) -> String {
    let mut o = String::new();
    outln!(
        o,
        "Table 3: workload suite ({} dynamic instructions each)",
        set.budget()
    );
    outln!(
        o,
        "====================================================================="
    );
    outln!(
        o,
        "{:<14} {:<8} {:>7} {:>7} {:>7}  modelled behaviour",
        "workload",
        "suite",
        "load%",
        "store%",
        "branch%"
    );
    for w in lvp_workloads::all() {
        let p = set.profile(w.name);
        let n = p.instructions as f64;
        outln!(
            o,
            "{:<14} {:<8} {:>6.1}% {:>6.1}% {:>6.1}%  {}",
            w.name,
            w.suite.to_string(),
            p.loads as f64 / n * 100.0,
            p.stores as f64 / n * 100.0,
            p.branches as f64 / n * 100.0,
            w.description
        );
    }
    o
}

fn table04_render(_set: &ResultSet) -> String {
    let mut o = String::new();
    let c = CoreConfig::default();
    outln!(
        o,
        "Table 4: baseline core configuration (Skylake-like, paper Table 4)"
    );
    outln!(
        o,
        "==================================================================="
    );
    outln!(
        o,
        "front-end width        : {} instr/cycle (fetch..rename)",
        c.frontend_width
    );
    outln!(
        o,
        "back-end width         : {} instr/cycle (issue..commit)",
        c.backend_width
    );
    outln!(
        o,
        "execution lanes        : {} load/store + {} generic",
        c.ls_lanes,
        c.generic_lanes
    );
    outln!(
        o,
        "ROB/IQ/LDQ/STQ         : {}/{}/{}/{}",
        c.rob_entries,
        c.iq_entries,
        c.ldq_entries,
        c.stq_entries
    );
    outln!(o, "physical registers     : {}", c.physical_regs);
    outln!(
        o,
        "fetch-to-execute depth : {} cycles",
        c.fetch_to_execute()
    );
    outln!(
        o,
        "branch prediction      : 32KB-class TAGE + ITTAGE, 16-entry RAS"
    );
    outln!(
        o,
        "memory dependence      : store-set MDP (Alpha 21264-style)"
    );
    let m = c.mem;
    outln!(
        o,
        "L1 (split)             : {}KB {}-way, {} cycle (D) / {} cycle (I)",
        m.l1d.size_bytes >> 10,
        m.l1d.ways,
        m.l1d.hit_latency,
        m.l1i.hit_latency
    );
    outln!(
        o,
        "L2                     : {}KB {}-way, {} cycles",
        m.l2.size_bytes >> 10,
        m.l2.ways,
        m.l2.hit_latency
    );
    outln!(
        o,
        "L3                     : {}MB {}-way, {} cycles",
        m.l3.size_bytes >> 20,
        m.l3.ways,
        m.l3.hit_latency
    );
    outln!(o, "memory                 : {} cycles", m.memory_latency);
    outln!(
        o,
        "TLB                    : {}-entry {}-way",
        m.tlb.entries,
        m.tlb.ways
    );
    outln!(o, "prefetcher             : PC-indexed stride");
    outln!(
        o,
        "DLVP                   : 1k-entry APT, 16-bit load-path history, 32-entry PAQ (N=4)"
    );
    outln!(
        o,
        "PVT                    : {} entries, {} predictions/cycle",
        c.pvt_entries,
        c.vp_per_cycle
    );
    outln!(
        o,
        "value misp. recovery   : {:?} (+{} cycle confirm)",
        c.recovery,
        c.value_check_penalty
    );
    o
}

// ---------------------------------------------------------------------------
// Branch-predictor sensitivity ablation
// ---------------------------------------------------------------------------

/// The two branch-predictor design points: display label → preset.
const BRANCH_POINTS: &[(&str, &str)] = &[("TAGE", "default"), ("gshare", "gshare")];

fn ablation_branch_sims() -> Vec<SimRequest> {
    let mut pairs = Vec::new();
    for &(_, preset) in BRANCH_POINTS {
        pairs.push((BASE, preset));
        pairs.push((DLVP, preset));
        pairs.push((VTAGE, preset));
    }
    across_workloads(&pairs)
}

fn ablation_branch_render(set: &ResultSet) -> String {
    let mut o = String::new();
    header(
        &mut o,
        "ablation_branch",
        "value prediction vs branch predictor quality",
        set.budget(),
    );
    outln!(
        o,
        "{:<12} {:>10} {:>10} {:>12} {:>12}",
        "predictor",
        "base IPC*",
        "br-MPKI*",
        "DLVP spdup",
        "VTAGE spdup"
    );
    for &(name, preset) in BRANCH_POINTS {
        let (mut ipc, mut mpki, mut sd, mut sv) = (0.0, 0.0, Vec::new(), Vec::new());
        let mut n = 0.0;
        for w in lvp_workloads::all() {
            let base = set.stats(w.name, BASE, preset);
            let d = set.stats(w.name, DLVP, preset);
            let v = set.stats(w.name, VTAGE, preset);
            ipc += base.ipc();
            mpki += base.branch_mispredicts as f64 / (base.instructions as f64 / 1000.0);
            sd.push(d.speedup_over(base));
            sv.push(v.speedup_over(base));
            n += 1.0;
        }
        outln!(
            o,
            "{:<12} {:>10.3} {:>10.2} {:>12} {:>12}",
            name,
            ipc / n,
            mpki / n,
            report::speedup_pct(report::geomean(&sd)),
            report::speedup_pct(report::geomean(&sv)),
        );
    }
    outln!(o, "\n(* arithmetic means across workloads)");
    outln!(
        o,
        "Expected: the weaker predictor lowers baseline IPC and raises the"
    );
    outln!(
        o,
        "misprediction rate; value prediction recovers more of the exposed"
    );
    outln!(o, "resolution latency, so both schemes' speedups grow.");
    o
}

// ---------------------------------------------------------------------------
// DLVP design-choice ablations
// ---------------------------------------------------------------------------

/// The single-knob ablation rows: display label → `SimConfig` preset
/// (`default` rows restate the paper design point for comparison).
const DLVP_ABLATION_ROWS: &[(&str, &str)] = &[
    ("Policy-2 (paper default)", "default"),
    ("Policy-1 (always replace)", "policy1"),
    ("LSCD disabled", "no_lscd"),
    (
        "way prediction disabled (full-set probes)",
        "no_way_prediction",
    ),
    ("PAQ deadline N = 2", "paq_n2"),
    ("PAQ deadline N = 4", "default"),
    ("PAQ deadline N = 8", "paq_n8"),
    ("load-path history = 4 bits", "hist4"),
    ("load-path history = 8 bits", "hist8"),
    ("load-path history = 16 bits", "default"),
    ("load-path history = 32 bits", "hist32"),
];

/// The §5.2.4 confidence sweep: display label → (flush preset, replay
/// preset). The paper's {1,1/2,1/4} vector *is* the default, so its two
/// cells are the `default`/`oracle_replay` presets.
const DLVP_FPC_ROWS: &[(&str, &str, &str)] = &[
    ("{1} (~1)", "fpc_1", "fpc_1_replay"),
    ("{1,1/2} (~3)", "fpc_12", "fpc_12_replay"),
    ("{1,1/2,1/4} (~8, paper)", "default", "oracle_replay"),
    ("{1,1/4,1/8} (~13)", "fpc_148", "fpc_148_replay"),
];

fn ablation_dlvp_sims() -> Vec<SimRequest> {
    let mut pairs: Vec<(SchemeKind, &'static str)> = vec![(BASE, "default")];
    for &(_, preset) in DLVP_ABLATION_ROWS {
        pairs.push((DLVP, preset));
    }
    for &(_, flush, replay) in DLVP_FPC_ROWS {
        pairs.push((DLVP, flush));
        pairs.push((DLVP, replay));
    }
    across_workloads(&pairs)
}

/// Geomean speedup, mean coverage and pooled accuracy of DLVP under
/// `preset`, against the default-config baseline — the spec-pipeline form
/// of the retired binary's `run_all`.
fn dlvp_ablation_point(set: &ResultSet, preset: &'static str) -> (f64, f64, f64) {
    let mut sp = Vec::new();
    let (mut cov, mut pred, mut corr) = (0.0, 0u64, 0u64);
    let mut n = 0.0;
    for w in lvp_workloads::all() {
        let s = set.stats(w.name, DLVP, preset);
        let base = set.stats(w.name, BASE, "default");
        sp.push(s.speedup_over(base));
        cov += s.coverage();
        pred += s.vp_predicted;
        corr += s.vp_correct;
        n += 1.0;
    }
    let acc = if pred == 0 {
        0.0
    } else {
        corr as f64 / pred as f64
    };
    (report::geomean(&sp), cov / n, acc)
}

fn ablation_dlvp_render(set: &ResultSet) -> String {
    let mut o = String::new();
    header(
        &mut o,
        "ablation_dlvp",
        "DLVP design-choice ablations",
        set.budget(),
    );
    outln!(
        o,
        "{:<44} {:>9} {:>9} {:>9}",
        "configuration",
        "speedup",
        "coverage",
        "accuracy"
    );
    for &(name, preset) in DLVP_ABLATION_ROWS {
        let r = dlvp_ablation_point(set, preset);
        outln!(
            o,
            "{:<44} {:>9} {:>9} {:>9}",
            name,
            report::speedup_pct(r.0),
            report::pct(r.1),
            report::pct(r.2)
        );
    }

    outln!(
        o,
        "\n-- confidence sweep: trading accuracy for coverage ---------------"
    );
    outln!(
        o,
        "{:<28} {:>9} {:>9} {:>9} {:>12}",
        "FPC vector (~observations)",
        "flush",
        "coverage",
        "accuracy",
        "oracle-replay"
    );
    for &(name, flush_preset, replay_preset) in DLVP_FPC_ROWS {
        let flush = dlvp_ablation_point(set, flush_preset);
        let replay = dlvp_ablation_point(set, replay_preset);
        outln!(
            o,
            "{:<28} {:>9} {:>9} {:>9} {:>12}",
            name,
            report::speedup_pct(flush.0),
            report::pct(flush.1),
            report::pct(flush.2),
            report::speedup_pct(replay.0)
        );
    }
    outln!(
        o,
        "\n(lower confidence ⇒ more coverage, worse accuracy: costly under"
    );
    outln!(
        o,
        " flush recovery, nearly free under oracle replay — the sweet-spot"
    );
    outln!(o, " exercise the paper leaves as future work)");
    o
}

// ---------------------------------------------------------------------------
// D-VTAGE extension study
// ---------------------------------------------------------------------------

fn ext_dvtage_sims() -> Vec<SimRequest> {
    across_workloads(&[
        (BASE, "default"),
        (VTAGE, "default"),
        (DVTAGE, "default"),
        (DLVP, "default"),
    ])
}

fn ext_dvtage_render(set: &ResultSet) -> String {
    let mut o = String::new();
    header(
        &mut o,
        "ext_dvtage",
        "extension: D-VTAGE vs VTAGE vs DLVP",
        set.budget(),
    );
    outln!(
        o,
        "{:<14} {:>9} {:>9} {:>9} | {:>8} {:>8} {:>8}",
        "workload",
        "VTAGE",
        "D-VTAGE",
        "DLVP",
        "covV",
        "covDV",
        "covD"
    );
    let mut sp = [Vec::new(), Vec::new(), Vec::new()];
    let mut cov = [0.0f64; 3];
    let mut n = 0.0;
    for w in lvp_workloads::all() {
        let base = set.stats(w.name, BASE, "default");
        let v = set.stats(w.name, VTAGE, "default");
        let dv = set.stats(w.name, DVTAGE, "default");
        let d = set.stats(w.name, DLVP, "default");
        outln!(
            o,
            "{:<14} {:>9} {:>9} {:>9} | {:>8} {:>8} {:>8}",
            w.name,
            report::speedup_pct(v.speedup_over(base)),
            report::speedup_pct(dv.speedup_over(base)),
            report::speedup_pct(d.speedup_over(base)),
            report::pct(v.coverage()),
            report::pct(dv.coverage()),
            report::pct(d.coverage()),
        );
        for (i, s) in [&v, &dv, &d].iter().enumerate() {
            sp[i].push(s.speedup_over(base));
            cov[i] += s.coverage();
        }
        n += 1.0;
    }
    outln!(
        o,
        "----------------------------------------------------------------"
    );
    outln!(
        o,
        "GEOMEAN        {:>9} {:>9} {:>9} | {:>8} {:>8} {:>8}",
        report::speedup_pct(report::geomean(&sp[0])),
        report::speedup_pct(report::geomean(&sp[1])),
        report::speedup_pct(report::geomean(&sp[2])),
        report::pct(cov[0] / n),
        report::pct(cov[1] / n),
        report::pct(cov[2] / n),
    );
    outln!(
        o,
        "\nD-VTAGE adds stride capture (covers pointer-walk values VTAGE"
    );
    outln!(
        o,
        "misses) but stays exposed to the conflicting-store problem that"
    );
    outln!(
        o,
        "motivates DLVP, and needs the speculative last-value window the"
    );
    outln!(o, "paper cautions about (§2.1).");
    o
}

// ---------------------------------------------------------------------------
// Table 5: static vs dynamic store-conflict profile
// ---------------------------------------------------------------------------

/// Workloads with representative conflict structure: every workload the
/// dependence pass proves a must-edge on, plus conflict-free and
/// pointer-chasing controls.
const TABLE05_WORKLOADS: &[&str] = &[
    "aifirf",
    "bzip2",
    "crafty",
    "gzip",
    "hmmer",
    "idct",
    "libquantum",
    "mcf",
    "nat",
    "twolf",
];

fn table05_render(set: &ResultSet) -> String {
    let mut o = String::new();
    header(
        &mut o,
        "table05_conflicts",
        "static vs dynamic store-conflict profile",
        set.budget(),
    );
    outln!(
        o,
        "{:<12} {:>5} {:>6} {:>8} | {:>8} {:>8} {:>10} {:>5}",
        "workload",
        "may",
        "must",
        "bounded",
        "exposed",
        "lscd",
        "exercised",
        "viol"
    );
    let mut tot = [0usize; 6];
    for name in TABLE05_WORKLOADS {
        let w = lvp_workloads::by_name(name).expect("table workload");
        let r = analyze_workload(
            &w,
            set.budget(),
            PapConfig::default(),
            DlvpConfig::default(),
            &XvalConfig::default(),
        );
        let may = r.dep.graph.edges.len();
        let must = r
            .dep
            .graph
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Must)
            .count();
        let bounded = r
            .dep
            .bounds
            .iter()
            .filter(|b| b.coverage_bound < 1.0)
            .count();
        let exposed = r
            .loads
            .iter()
            .filter(|l| l.stats.conflict_exposed > 0)
            .count();
        let lscd = r
            .loads
            .iter()
            .filter(|l| l.stats.lscd_suppressed > 0)
            .count();
        let exercised = r.must_exercised.values().filter(|&&n| n > 0).count();
        outln!(
            o,
            "{:<12} {:>5} {:>6} {:>8} | {:>8} {:>8} {:>10} {:>5}",
            name,
            may,
            must,
            bounded,
            exposed,
            lscd,
            exercised,
            r.violations.len()
        );
        for (acc, v) in tot
            .iter_mut()
            .zip([may, must, bounded, exposed, lscd, exercised])
        {
            *acc += v;
        }
    }
    outln!(
        o,
        "----------------------------------------------------------------"
    );
    outln!(
        o,
        "{:<12} {:>5} {:>6} {:>8} | {:>8} {:>8} {:>10}",
        "TOTAL",
        tot[0],
        tot[1],
        tot[2],
        tot[3],
        tot[4],
        tot[5]
    );
    outln!(
        o,
        "\nStatic columns: may/must-conflict edges in the dependence graph,"
    );
    outln!(
        o,
        "loads with a tight coverage bound. Dynamic columns: loads that"
    );
    outln!(
        o,
        "observed an in-flight conflicting store, loads the LSCD suppressed,"
    );
    outln!(
        o,
        "must-edges whose store side executed before the load. 'viol' is the"
    );
    outln!(
        o,
        "cross-validation gate verdict (rules R1-R7) and must read 0"
    );
    outln!(o, "everywhere on a correct simulator.");
    o
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// Every figure, table, ablation and extension study, in report order.
pub const SPECS: &[ExperimentSpec] = &[
    ExperimentSpec {
        name: "fig01_conflicts",
        title: "loads conflicting with stores (Figure 1)",
        profiles: true,
        sims: no_sims,
        render: fig01_render,
    },
    ExperimentSpec {
        name: "fig02_repeatability",
        title: "address vs value repeatability (Figure 2)",
        profiles: true,
        sims: no_sims,
        render: fig02_render,
    },
    ExperimentSpec {
        name: "fig03_pipeline",
        title: "pipeline with value prediction and DLVP (Figure 3)",
        profiles: false,
        sims: no_sims,
        render: fig03_render,
    },
    ExperimentSpec {
        name: "fig04_addr_pred",
        title: "PAP vs CAP standalone (Figure 4)",
        profiles: true,
        sims: no_sims,
        render: fig04_render,
    },
    ExperimentSpec {
        name: "fig05_prefetch",
        title: "DLVP prefetch on/off (Figure 5)",
        profiles: false,
        sims: fig05_sims,
        render: fig05_render,
    },
    ExperimentSpec {
        name: "fig06_comparison",
        title: "CAP vs VTAGE vs DLVP (Figure 6)",
        profiles: false,
        sims: fig06_sims,
        render: fig06_render,
    },
    ExperimentSpec {
        name: "fig07_vtage",
        title: "VTAGE filter/target study (Figure 7)",
        profiles: false,
        sims: fig07_sims,
        render: fig07_render,
    },
    ExperimentSpec {
        name: "fig08_tournament",
        title: "DLVP + VTAGE tournament (Figure 8)",
        profiles: false,
        sims: fig08_sims,
        render: fig08_render,
    },
    ExperimentSpec {
        name: "fig09_selected",
        title: "speedup vs coverage decoupling (Figure 9)",
        profiles: false,
        sims: fig09_sims,
        render: fig09_render,
    },
    ExperimentSpec {
        name: "fig10_recovery",
        title: "flush vs oracle replay (Figure 10)",
        profiles: false,
        sims: fig10_sims,
        render: fig10_render,
    },
    ExperimentSpec {
        name: "table01_apt",
        title: "APT entry layout and storage budget (Table 1)",
        profiles: false,
        sims: no_sims,
        render: table01_render,
    },
    ExperimentSpec {
        name: "table02_prf",
        title: "predicted-value communication designs (Table 2)",
        profiles: false,
        sims: no_sims,
        render: table02_render,
    },
    ExperimentSpec {
        name: "table03_workloads",
        title: "workload suite with dynamic-mix statistics (Table 3)",
        profiles: true,
        sims: no_sims,
        render: table03_render,
    },
    ExperimentSpec {
        name: "table04_config",
        title: "baseline core configuration (Table 4)",
        profiles: false,
        sims: no_sims,
        render: table04_render,
    },
    ExperimentSpec {
        name: "ablation_branch",
        title: "value prediction vs branch predictor quality",
        profiles: false,
        sims: ablation_branch_sims,
        render: ablation_branch_render,
    },
    ExperimentSpec {
        name: "ablation_dlvp",
        title: "DLVP design-choice ablations",
        profiles: false,
        sims: ablation_dlvp_sims,
        render: ablation_dlvp_render,
    },
    ExperimentSpec {
        name: "ext_dvtage",
        title: "extension: D-VTAGE vs VTAGE vs DLVP",
        profiles: false,
        sims: ext_dvtage_sims,
        render: ext_dvtage_render,
    },
    ExperimentSpec {
        name: "table05_conflicts",
        title: "static vs dynamic store-conflict profile (dependence pass)",
        profiles: false,
        sims: no_sims,
        render: table05_render,
    },
];

/// Finds a spec by name.
pub fn by_name(name: &str) -> Option<&'static ExperimentSpec> {
    SPECS.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_are_unique_and_resolvable() {
        let mut seen = HashSet::new();
        for spec in SPECS {
            assert!(seen.insert(spec.name), "duplicate spec '{}'", spec.name);
            assert_eq!(by_name(spec.name).map(|s| s.name), Some(spec.name));
        }
        assert_eq!(SPECS.len(), 18);
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn every_request_names_known_workloads_and_presets() {
        let workloads = lvp_workloads::names();
        for spec in SPECS {
            for req in (spec.sims)() {
                assert!(
                    workloads.contains(&req.workload),
                    "{}: unknown workload '{}'",
                    spec.name,
                    req.workload
                );
                let cfg = SimConfig::preset(req.preset)
                    .unwrap_or_else(|e| panic!("{}: preset '{}': {e}", spec.name, req.preset));
                assert!(cfg.validate().is_ok(), "{} preset invalid", req.preset);
            }
        }
    }

    #[test]
    fn static_specs_render_without_simulating() {
        let set = ResultSet {
            budget: 0,
            profiles: HashMap::new(),
            sims: HashMap::new(),
        };
        for name in [
            "fig03_pipeline",
            "table01_apt",
            "table02_prf",
            "table04_config",
        ] {
            let spec = by_name(name).expect("registered spec");
            let text = (spec.render)(&set);
            assert!(!text.is_empty());
            assert!(text.ends_with('\n'), "{name} must end with a newline");
        }
    }

    #[test]
    fn run_specs_is_schedule_invariant() {
        // Several specs, profile-reading ones among them, render on the pool:
        // identical texts in spec order at any worker count.
        let names = [
            "fig01_conflicts",
            "fig04_addr_pred",
            "table03_workloads",
            "fig09_selected",
        ];
        let specs: Vec<_> = names
            .iter()
            .map(|n| by_name(n).expect("registered spec"))
            .collect();
        let serial = run_specs(&specs, 3_000, 1);
        let parallel = run_specs(&specs, 3_000, 3);
        assert_eq!(serial.len(), names.len());
        for ((a, b), name) in serial.iter().zip(&parallel).zip(names) {
            assert_eq!((a.name, b.name), (name, name));
            assert_eq!(a.text, b.text, "{name}");
        }
        assert!(serial[3].text.contains("bzip2"));
    }
}
