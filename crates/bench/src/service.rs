//! Bench-side glue for the content-addressed result store.
//!
//! [`lvp_store::SimService`] memoizes raw JSON payloads; this module binds
//! it to the bench request models. It owns (a) the canonical *request
//! document* shape every consumer hashes — so `figs`, `runner`, `serve`
//! and `bench` share one key space and a result computed by any of them is
//! a hit for all of them — and (b) [`simulate_cached`], the one
//! lookup-or-run executor those three front ends share: it keys every
//! simulation, coalesces duplicate keys, shards only the misses across the
//! [`par_map_metered`] pool, and records what it computed. Every `sim` key
//! stores one payload shape, a bare [`SchemeOutcome`] — the D-VTAGE
//! extension included, keyed by its scheme name `D-VTAGE`.
//!
//! Request documents embed the trace *fingerprint* rather than the
//! workload name: a workload-generator edit changes the fingerprint and
//! silently invalidates every affected entry, while `SimConfig` is
//! embedded fully resolved so a preset edit recomputes exactly the design
//! points it touches (the incremental-`figs` property). A process-wide memo
//! maps each `(workload, budget)` to the fingerprint of its records, so a
//! warm process keys a hit without emulating or fingerprinting anything.
//! No simulation builds a trace: the misses stream their records from the
//! emulator, one pass per `(workload, budget, sample)` shared by every
//! item on it.

use crate::experiments::{run_stream, SchemeKind, SchemeOutcome};
use crate::runner::par_map_metered;
use crate::telemetry::{Progress, STREAM_PREFIX};
use lvp_json::{Json, ToJson};
use lvp_obs::PhaseSink;
use lvp_store::SimService;
use lvp_trace::Fingerprinter;
use lvp_uarch::SimConfig;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, PoisonError};

/// The canonical request document for one simulation: everything its
/// result is a pure function of.
pub fn sim_request_doc(trace_fingerprint: u64, budget: u64, scheme: &str, cfg: &SimConfig) -> Json {
    Json::obj([
        ("kind", Json::Str("sim".to_string())),
        ("trace", Json::Str(format!("{trace_fingerprint:016x}"))),
        ("budget", Json::U64(budget)),
        ("scheme", Json::Str(scheme.to_string())),
        ("config", cfg.to_json()),
    ])
}

/// What a cached batch actually executed (the cache misses): simulated
/// cycles, instructions, and job count. Callers charge their `simulate`
/// telemetry span with these so manifests attribute wall time only to
/// sims that ran — a fully warm run reports zero jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutedWork {
    pub sim_cycles: u64,
    pub instructions: u64,
    pub jobs: u64,
}

/// How one item's result was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Answered from the result store (memo or disk).
    Store,
    /// Executed on the pool (then recorded, when the service is enabled).
    Computed,
    /// Coalesced onto an earlier item of the same batch with the same key.
    Deduped,
}

impl Provenance {
    /// The `"source"` name a response line carries.
    pub fn name(self) -> &'static str {
        match self {
            Provenance::Store => "store",
            Provenance::Computed => "computed",
            Provenance::Deduped => "deduped",
        }
    }

    /// Parses a [`Provenance::name`].
    pub fn from_name(name: &str) -> Option<Provenance> {
        [Provenance::Store, Provenance::Computed, Provenance::Deduped]
            .into_iter()
            .find(|p| p.name() == name)
    }
}

/// A batch result: every item's output and provenance (input order), each
/// item's store key (empty when the service is disabled), and the work the
/// misses cost.
pub struct CachedBatch<R> {
    pub results: Vec<R>,
    pub provenance: Vec<Provenance>,
    pub keys: Vec<String>,
    pub executed: ExecutedWork,
}

/// One simulation: `scheme` on `workload`'s trace at `budget`, under
/// `config`.
pub struct SimPoint<'a> {
    pub workload: &'a str,
    pub budget: u64,
    pub scheme: SchemeKind,
    pub config: SimConfig,
}

/// `Trace::fingerprint()` of every `(workload, budget)` an enabled service
/// has keyed in this process, computed from the stream of records that
/// trace would hold. Within one binary a registered workload name fixes
/// its program, so an entry never goes stale and needs no version stamp;
/// keys stay content-derived because every entry is a fingerprint this
/// process computed from the workload's records.
static FINGERPRINTS: Mutex<BTreeMap<(String, u64), u64>> = Mutex::new(BTreeMap::new());

fn memoized_fingerprint(workload: &str, budget: u64) -> Option<u64> {
    FINGERPRINTS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&(workload.to_string(), budget))
        .copied()
}

fn memoize_fingerprint(workload: &str, budget: u64, fingerprint: u64) {
    FINGERPRINTS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert((workload.to_string(), budget), fingerprint);
}

fn workload(name: &str) -> lvp_workloads::Workload {
    lvp_workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload '{name}'"))
}

/// Fingerprints the record stream of every `(workload, budget)` of `needs`
/// on the pool, one `fingerprint:<name>` span each, storing no record, and
/// memoizes each value. Returns the records it hashed.
fn stream_fingerprints<P: PhaseSink>(needs: &[(&str, u64)], workers: usize, phases: &P) -> u64 {
    let records = par_map_metered(
        needs,
        workers,
        phases,
        &Progress::off(),
        |&(w, _)| format!("fingerprint:{w}"),
        |&records| (0, records, 0),
        |&(w, budget)| {
            let mut f = Fingerprinter::new();
            let mut records = 0;
            for rec in workload(w).records(budget) {
                f.push(&rec);
                records += 1;
            }
            memoize_fingerprint(w, budget, f.finish());
            records
        },
    );
    records.iter().sum()
}

/// Plans the streams for `points`, as indices into them: one per distinct
/// `(workload, budget, sample)`, in first-seen order. While there are fewer
/// streams than `workers`, the largest is halved so the pool stays busy;
/// the halves emulate the workload twice, and every outcome stays the
/// same.
fn plan_streams(points: &[&SimPoint<'_>], workers: usize) -> Vec<Vec<usize>> {
    let mut streams: Vec<Vec<usize>> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let key = (p.workload, p.budget, p.config.sample);
        match streams.iter_mut().find(|g| {
            let q = points[g[0]];
            (q.workload, q.budget, q.config.sample) == key
        }) {
            Some(g) => g.push(i),
            None => streams.push(vec![i]),
        }
    }
    while streams.len() < workers {
        let Some(largest) = streams
            .iter_mut()
            .filter(|g| g.len() > 1)
            .max_by_key(|g| g.len())
        else {
            break;
        };
        let half = largest.split_off(largest.len() / 2);
        streams.push(half);
    }
    streams
}

/// Runs `points` on the pool and returns their outcomes in order: each
/// stream of [`plan_streams`] over one emulator pass ([`run_stream`]) under
/// a `stream:<workload>` span charged with its members' summed work and
/// their count. `progress` ticks once per point.
fn run_points<P: PhaseSink>(
    points: &[&SimPoint<'_>],
    workers: usize,
    phases: &P,
    progress: &Progress,
) -> Vec<SchemeOutcome> {
    let streams = plan_streams(points, workers);
    let done = par_map_metered(
        &streams,
        workers,
        phases,
        &Progress::off(),
        |g| format!("{STREAM_PREFIX}{}", points[g[0]].workload),
        |outs: &Vec<SchemeOutcome>| {
            outs.iter().fold((0, 0, 0), |(c, n, j), o| {
                (c + o.stats.cycles, n + o.stats.instructions, j + 1)
            })
        },
        |g| {
            let p = points[g[0]];
            let members: Vec<(SchemeKind, &SimConfig)> = g
                .iter()
                .map(|&i| (points[i].scheme, &points[i].config))
                .collect();
            let outs = run_stream(&workload(p.workload), p.budget, p.config.sample, &members);
            for o in &outs {
                progress.tick(o.stats.cycles);
            }
            outs
        },
    );
    let mut outcomes: Vec<Option<SchemeOutcome>> = points.iter().map(|_| None).collect();
    for (g, outs) in streams.iter().zip(done) {
        for (&i, o) in g.iter().zip(outs) {
            outcomes[i] = Some(o);
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every point belongs to one stream"))
        .collect()
}

/// The one cached-simulation executor behind `figs`, `runner` and
/// `serve`. Each item names a [`SimPoint`] through `point`.
///
/// Every executed item is a member of a stream: the items sharing
/// `(workload, budget, sample)` run over one emulator pass, which feeds
/// each record to every member's core (see [`run_stream`]). No item
/// builds a trace, so a run's memory does not grow with its budget. The
/// streams run on the pool under a lane-0 `simulate` span, one
/// `stream:<name>` span each.
///
/// With an enabled service every item is keyed with [`sim_request_doc`]
/// over its workload's fingerprint. A `(workload, budget)` whose
/// fingerprint this process has not memoized is first fingerprinted from
/// its record stream, storing nothing (under `fingerprint_streams`, one
/// `fingerprint:<name>` span each). Under `simulate`, charged with the
/// misses' simulated work, hits are answered with their stored
/// [`SchemeOutcome`] and only the misses run. A batch of hits whose
/// fingerprints are memoized therefore emulates nothing.
///
/// # Panics
///
/// Panics if an item names an unknown workload.
pub fn simulate_cached<'a, T, F, P>(
    service: &SimService,
    items: &'a [T],
    point: F,
    workers: usize,
    phases: &P,
    progress: &Progress,
) -> CachedBatch<SchemeOutcome>
where
    F: Fn(&'a T) -> SimPoint<'a>,
    P: PhaseSink,
{
    let points: Vec<SimPoint<'a>> = items.iter().map(point).collect();

    // An enabled service keys every item by its workload's fingerprint;
    // the ones this process has not memoized come from a streaming pass
    // that stores nothing.
    let mut unknown: Vec<(&str, u64)> = Vec::new();
    for p in points.iter().filter(|_| service.enabled()) {
        let need = (p.workload, p.budget);
        if memoized_fingerprint(p.workload, p.budget).is_none() && !unknown.contains(&need) {
            unknown.push(need);
        }
    }
    if !unknown.is_empty() {
        let mut span = phases.span(0, "fingerprint_streams");
        span.charge(0, stream_fingerprints(&unknown, workers, phases), 0);
        span.finish();
    }

    let mut span = phases.span(0, "simulate");
    let outcomes = par_map_cached(
        service,
        &points,
        |p| {
            let fingerprint = memoized_fingerprint(p.workload, p.budget)
                .expect("an enabled service memoizes every item's fingerprint");
            sim_request_doc(fingerprint, p.budget, p.scheme.name(), &p.config)
        },
        |_, payload| SchemeOutcome::from_json(payload).ok(),
        |o: &SchemeOutcome| (o.stats.cycles, o.stats.instructions),
        |todo| run_points(todo, workers, phases, progress),
    );
    span.charge(
        outcomes.executed.sim_cycles,
        outcomes.executed.instructions,
        outcomes.executed.jobs,
    );
    span.finish();
    outcomes
}

/// A lookup-or-run batch behind a [`SimService`], generic over the item
/// and result types. It keys every item, coalesces items whose key an
/// earlier item already owns (in-flight dedup: the first occurrence owns
/// the key, later ones borrow its result), looks each owner up, hands only
/// the misses to `execute` (which returns one result per item, in order),
/// records what it computed, and reassembles results in input order. A
/// payload that `decode` rejects is recomputed, exactly like an absent
/// entry; payloads are written with `R`'s [`ToJson`]. `meter` tallies the
/// executed work.
///
/// With a disabled service `execute` receives every item — no keys, no
/// lookups — so store-off runs keep their exact artifact and manifest
/// bytes. With an enabled service the results are still bit-identical
/// because payloads round-trip losslessly; only the executed set shrinks.
fn par_map_cached<T, R, Q, D, M, X>(
    service: &SimService,
    items: &[T],
    request_doc: Q,
    decode: D,
    meter: M,
    execute: X,
) -> CachedBatch<R>
where
    R: Clone + ToJson,
    Q: Fn(&T) -> Json,
    D: Fn(&T, &Json) -> Option<R>,
    M: Fn(&R) -> (u64, u64),
    X: FnOnce(&[&T]) -> Vec<R>,
{
    let tally = |results: &[R]| {
        results.iter().map(&meter).fold(
            ExecutedWork::default(),
            |acc, (sim_cycles, instructions)| ExecutedWork {
                sim_cycles: acc.sim_cycles + sim_cycles,
                instructions: acc.instructions + instructions,
                jobs: acc.jobs + 1,
            },
        )
    };
    if !service.enabled() {
        let all: Vec<&T> = items.iter().collect();
        let results = execute(&all);
        return CachedBatch {
            executed: tally(&results),
            provenance: vec![Provenance::Computed; results.len()],
            keys: Vec::new(),
            results,
        };
    }

    let keys: Vec<String> = items
        .iter()
        .map(|item| service.key(&request_doc(item)))
        .collect();
    let mut owner_of: HashMap<&str, usize> = HashMap::new();
    let mut borrowed: Vec<Option<usize>> = vec![None; items.len()];
    for (i, key) in keys.iter().enumerate() {
        match owner_of.get(key.as_str()) {
            Some(&owner) => borrowed[i] = Some(owner),
            None => {
                owner_of.insert(key, i);
            }
        }
    }
    service.note_deduped(borrowed.iter().flatten().count() as u64);

    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let mut provenance = vec![Provenance::Deduped; items.len()];
    let mut misses: Vec<usize> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        if borrowed[i].is_some() {
            continue;
        }
        match service.lookup(&keys[i]).and_then(|p| decode(item, &p)) {
            Some(r) => {
                slots[i] = Some(r);
                provenance[i] = Provenance::Store;
            }
            None => misses.push(i),
        }
    }

    let miss_items: Vec<&T> = misses.iter().map(|&i| &items[i]).collect();
    let computed = execute(&miss_items);
    let executed = tally(&computed);
    for (&i, r) in misses.iter().zip(computed) {
        if let Err(e) = service.record(&keys[i], &r.to_json()) {
            eprintln!("warning: result store write failed: {e}");
        }
        slots[i] = Some(r);
        provenance[i] = Provenance::Computed;
    }
    for (i, owner) in borrowed.iter().enumerate() {
        if let Some(owner) = *owner {
            slots[i] = slots[owner].clone();
        }
    }
    let results = slots
        .into_iter()
        .map(|s| s.expect("every slot filled by a hit, a computed miss or its owner"))
        .collect();
    CachedBatch {
        results,
        provenance,
        keys,
        executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_obs::{NullPhases, PhaseRecorder};
    use std::collections::BTreeSet;

    // The fingerprint memo is process-wide, so each test below simulates
    // at budgets no other test uses.

    type Item = (&'static str, u64, SchemeKind);

    fn point(&(workload, budget, scheme): &Item) -> SimPoint<'_> {
        SimPoint {
            workload,
            budget,
            scheme,
            config: SimConfig::default(),
        }
    }

    /// A batch and the workloads it emulated, by span name and in name
    /// order: to simulate (`stream:`) and to fingerprint (`fingerprint:`).
    struct Run {
        batch: CachedBatch<SchemeOutcome>,
        streamed: Vec<String>,
        fingerprinted: Vec<String>,
    }

    fn sim(service: &SimService, items: &[Item]) -> Run {
        let rec = PhaseRecorder::new();
        let batch = simulate_cached(service, items, point, 2, &rec, &Progress::off());
        let spans = rec.spans();
        let emulated = |prefix: &str| -> Vec<String> {
            let names: BTreeSet<&str> = spans
                .iter()
                .filter_map(|s| s.name.strip_prefix(prefix))
                .collect();
            names.into_iter().map(str::to_string).collect()
        };
        Run {
            streamed: emulated(STREAM_PREFIX),
            fingerprinted: emulated("fingerprint:"),
            batch,
        }
    }

    #[test]
    fn memoized_fingerprints_equal_fresh_ones_and_key_identically() {
        let items: Vec<Item> = [1_201, 1_301]
            .into_iter()
            .flat_map(|budget| {
                lvp_workloads::names()
                    .into_iter()
                    .map(move |w| (w, budget, SchemeKind::Baseline))
            })
            .collect();
        let svc = SimService::in_memory();
        let run = sim(&svc, &items);
        for (i, &(w, budget, scheme)) in items.iter().enumerate() {
            let fresh = lvp_workloads::by_name(w)
                .expect("registered workload")
                .trace(budget)
                .fingerprint();
            assert_eq!(memoized_fingerprint(w, budget), Some(fresh), "{w}@{budget}");
            let doc = sim_request_doc(fresh, budget, scheme.name(), &SimConfig::default());
            assert_eq!(run.batch.keys[i], svc.key(&doc), "{w}@{budget}");
        }
    }

    #[test]
    fn warm_hit_only_batch_emulates_and_fingerprints_nothing() {
        let items: Vec<Item> = vec![
            ("aifirf", 1_401, SchemeKind::Baseline),
            ("aifirf", 1_401, SchemeKind::Dlvp),
            ("nat", 1_401, SchemeKind::Baseline),
        ];
        let svc = SimService::in_memory();
        let cold = sim(&svc, &items);
        assert_eq!(cold.streamed, ["aifirf", "nat"]);
        assert_eq!(cold.fingerprinted, ["aifirf", "nat"]);
        assert_eq!(cold.batch.provenance, [Provenance::Computed; 3]);

        let warm = sim(&svc, &items);
        assert!(
            warm.streamed.is_empty() && warm.fingerprinted.is_empty(),
            "a warm hit-only batch emulates nothing: {:?} {:?}",
            warm.streamed,
            warm.fingerprinted
        );
        assert_eq!(warm.batch.provenance, [Provenance::Store; 3]);
        assert_eq!(warm.batch.executed, ExecutedWork::default());
        assert_eq!(warm.batch.keys, cold.batch.keys);
        assert_eq!(warm.batch.results, cold.batch.results);
    }

    #[test]
    fn mixed_batch_streams_exactly_the_workloads_that_miss() {
        let svc = SimService::in_memory();
        let warmed: Vec<Item> = vec![
            ("aifirf", 1_501, SchemeKind::Baseline),
            ("nat", 1_501, SchemeKind::Baseline),
        ];
        sim(&svc, &warmed);
        let mut mixed = warmed.clone();
        // A known fingerprint that misses, then an unknown one.
        mixed.push(("aifirf", 1_501, SchemeKind::Dlvp));
        mixed.push(("gzip", 1_501, SchemeKind::Baseline));
        let run = sim(&svc, &mixed);
        assert_eq!(run.streamed, ["aifirf", "gzip"]);
        assert_eq!(run.fingerprinted, ["gzip"]);
        use Provenance::{Computed, Store};
        assert_eq!(run.batch.provenance, [Store, Store, Computed, Computed]);
        let fresh = sim(&SimService::disabled(), &mixed);
        assert_eq!(run.batch.results, fresh.batch.results);
    }

    #[test]
    fn disabled_service_streams_every_workload_and_fingerprints_none() {
        let items: Vec<Item> = vec![
            ("aifirf", 1_601, SchemeKind::Baseline),
            ("nat", 1_601, SchemeKind::Baseline),
            ("aifirf", 1_601, SchemeKind::Dlvp),
        ];
        for _ in 0..2 {
            let run = sim(&SimService::disabled(), &items);
            assert_eq!(run.streamed, ["aifirf", "nat"]);
            assert!(run.fingerprinted.is_empty());
            assert!(run.batch.keys.is_empty());
            assert_eq!(run.batch.provenance, [Provenance::Computed; 3]);
        }
        assert_eq!(memoized_fingerprint("aifirf", 1_601), None);
    }

    #[test]
    fn streams_group_points_and_split_to_fill_the_pool() {
        let spec = lvp_uarch::SampleSpec {
            ff: 1_000,
            warmup: 500,
            detail: 1_000,
            period: 3_000,
        };
        let point = |workload, scheme, sample| SimPoint {
            workload,
            budget: 9_000,
            scheme,
            config: SimConfig {
                sample,
                ..SimConfig::default()
            },
        };
        let points: Vec<SimPoint> = [SchemeKind::Baseline, SchemeKind::Cap, SchemeKind::Dlvp]
            .into_iter()
            .flat_map(|k| {
                [
                    point("aifirf", k, Some(spec)),
                    point("nat", k, None),
                    point("nat", k, Some(spec)),
                ]
            })
            .collect();
        let refs: Vec<&SimPoint> = points.iter().collect();
        let grouped = [vec![0, 3, 6], vec![1, 4, 7], vec![2, 5, 8]];
        assert_eq!(plan_streams(&refs, 1), grouped);
        assert_eq!(plan_streams(&refs, 3), grouped);
        let split = plan_streams(&refs, 7);
        assert_eq!(split.len(), 7);
        let mut covered: Vec<usize> = split.concat();
        covered.sort_unstable();
        assert_eq!(
            covered,
            (0..9).collect::<Vec<_>>(),
            "every point in one stream"
        );

        // The outcomes do not depend on how the streams were split, sampled
        // or not.
        let schemes = [SchemeKind::Baseline, SchemeKind::Dlvp, SchemeKind::Vtage];
        for sample in [Some(spec), None] {
            let run = |workers| {
                simulate_cached(
                    &SimService::disabled(),
                    &schemes,
                    |&scheme| SimPoint {
                        budget: 9_001,
                        ..point("aifirf", scheme, sample)
                    },
                    workers,
                    &NullPhases,
                    &Progress::off(),
                )
                .results
            };
            assert_eq!(run(1), run(3), "{sample:?}");
        }
    }

    fn doc(n: &u64) -> Json {
        Json::obj([("n", Json::U64(*n))])
    }

    #[test]
    fn disabled_service_matches_par_map() {
        let items: Vec<u64> = (0..10).collect();
        let svc = SimService::disabled();
        let batch = par_map_cached(
            &svc,
            &items,
            doc,
            |_, p| p.as_f64().map(|x| x as u64),
            |r| (*r, 1),
            |todo| crate::runner::par_map(todo, 4, |n| *n * 2),
        );
        assert_eq!(batch.results, (0..10).map(|n| n * 2).collect::<Vec<_>>());
        assert_eq!(batch.provenance, vec![Provenance::Computed; 10]);
        assert!(batch.keys.is_empty(), "a disabled service keys nothing");
        assert_eq!(batch.executed.jobs, 10);
        assert_eq!(batch.executed.sim_cycles, 90);
    }

    #[test]
    fn warm_batch_executes_zero_jobs_and_matches() {
        let items: Vec<u64> = (0..10).collect();
        let svc = SimService::in_memory();
        let run = |svc: &SimService| {
            par_map_cached(
                svc,
                &items,
                doc,
                |_, p| match p {
                    Json::U64(n) => Some(*n),
                    _ => None,
                },
                |r| (*r, 1),
                |todo| crate::runner::par_map(todo, 4, |n| *n * 3),
            )
        };
        let cold = run(&svc);
        assert_eq!(cold.executed.jobs, 10);
        assert_eq!(cold.provenance, vec![Provenance::Computed; 10]);
        let warm = run(&svc);
        assert_eq!(warm.provenance, vec![Provenance::Store; 10]);
        assert_eq!(warm.executed.jobs, 0);
        assert_eq!(warm.executed.sim_cycles, 0);
        assert_eq!(warm.results, cold.results);
        let c = svc.counters();
        assert_eq!((c.hits, c.misses), (10, 10));
    }

    #[test]
    fn duplicate_keys_run_once_and_borrow_the_owner() {
        let items: Vec<u64> = vec![1, 2, 1, 3, 2, 1];
        let svc = SimService::in_memory();
        let batch = par_map_cached(
            &svc,
            &items,
            doc,
            |_, p| match p {
                Json::U64(n) => Some(*n),
                _ => None,
            },
            |r| (*r, 1),
            |misses| {
                assert_eq!(misses, [&1, &2, &3], "only the key owners that miss run");
                misses.iter().map(|&n| n * 10).collect()
            },
        );
        assert_eq!(batch.results, vec![10, 20, 10, 30, 20, 10]);
        use Provenance::{Computed, Deduped};
        assert_eq!(
            batch.provenance,
            vec![Computed, Computed, Deduped, Computed, Deduped, Deduped]
        );
        assert_eq!(batch.keys[0], batch.keys[2]);
        assert_eq!(batch.executed.jobs, 3);
        let c = svc.counters();
        assert_eq!((c.misses, c.deduped), (3, 3));
    }
}
