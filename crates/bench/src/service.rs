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
//! warm process keys a hit without emulating or fingerprinting anything,
//! and builds a trace only for an unsampled miss. Sampled items never
//! build one: they stream their records from the emulator, one pass per
//! `(workload, budget, SampleSpec)` shared by every item on it.

use crate::experiments::{run_sampled_stream, run_scheme, SchemeKind, SchemeOutcome};
use crate::runner::par_map_metered;
use crate::telemetry::{Progress, STREAM_PREFIX};
use lvp_json::{Json, ToJson};
use lvp_obs::PhaseSink;
use lvp_store::SimService;
use lvp_trace::{Fingerprinter, Trace};
use lvp_uarch::SimConfig;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, OnceLock, PoisonError};

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
/// has keyed in this process, computed from a trace it built or from the
/// stream of records that trace would hold. Within one binary a registered
/// workload name fixes its program, so an entry never goes stale and needs
/// no version stamp; keys stay content-derived because every entry is a
/// fingerprint this process computed from the workload's records.
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

/// Builds the trace `needs[t]` for every `t` in `pick` on the pool, one
/// `trace:<name>` span each. Where `fingerprint(t)` holds, the worker also
/// fingerprints the trace it just built and memoizes the value: a second
/// pool pass for the fingerprints raised `serve`'s peak resident set by
/// about half in the `serve_mixed` benchmark (allocator arena retention).
fn build_traces<P: PhaseSink>(
    needs: &[(&str, u64)],
    pick: &[usize],
    fingerprint: impl Fn(usize) -> bool + Sync,
    workers: usize,
    phases: &P,
) -> Vec<(Trace, Option<u64>)> {
    par_map_metered(
        pick,
        workers,
        phases,
        &Progress::off(),
        |&t| format!("trace:{}", needs[t].0),
        |(trace, _): &(Trace, Option<u64>)| (0, trace.len() as u64),
        |&t| {
            let (w, budget) = needs[t];
            let trace = workload(w).trace(budget);
            let fingerprint = fingerprint(t).then(|| {
                let fp = trace.fingerprint();
                memoize_fingerprint(w, budget, fp);
                fp
            });
            (trace, fingerprint)
        },
    )
}

/// Fingerprints the record stream of `needs[t]` for every `t` in `pick` on
/// the pool, one `fingerprint:<name>` span each, storing no record, and
/// memoizes each value. Returns `(fingerprint, records)` per pick.
fn stream_fingerprints<P: PhaseSink>(
    needs: &[(&str, u64)],
    pick: &[usize],
    workers: usize,
    phases: &P,
) -> Vec<(u64, u64)> {
    par_map_metered(
        pick,
        workers,
        phases,
        &Progress::off(),
        |&t| format!("fingerprint:{}", needs[t].0),
        |&(_, records): &(u64, u64)| (0, records),
        |&t| {
            let (w, budget) = needs[t];
            let mut f = Fingerprinter::new();
            let mut records = 0;
            for rec in workload(w).records(budget) {
                f.push(&rec);
                records += 1;
            }
            memoize_fingerprint(w, budget, f.finish());
            (f.finish(), records)
        },
    )
}

/// One pool task of [`simulate_cached`]'s executed items, as indices into
/// them: an unsampled item run on its trace, or a stream — sampled items
/// sharing `(workload, budget, SampleSpec)` — run over one emulator pass.
enum Unit {
    One(usize),
    Stream(Vec<usize>),
}

/// Plans the pool tasks for `points`: one stream per distinct `(workload,
/// budget, SampleSpec)` of sampled points (in first-seen order, listed
/// first because they run longest), then one task per unsampled point.
/// While there are fewer tasks than `workers`, the largest stream is halved
/// so the pool stays busy; the halves emulate the workload twice, and
/// every outcome stays the same.
fn plan_units(points: &[&SimPoint<'_>], workers: usize) -> Vec<Unit> {
    let mut streams: Vec<Vec<usize>> = Vec::new();
    let mut ones: Vec<usize> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        if p.config.sample.is_none() {
            ones.push(i);
            continue;
        }
        let stream = (p.workload, p.budget, p.config.sample);
        match streams.iter_mut().find(|g| {
            let q = points[g[0]];
            (q.workload, q.budget, q.config.sample) == stream
        }) {
            Some(g) => g.push(i),
            None => streams.push(vec![i]),
        }
    }
    while streams.len() + ones.len() < workers {
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
        .into_iter()
        .map(Unit::Stream)
        .chain(ones.into_iter().map(Unit::One))
        .collect()
}

/// Runs `points` on the pool and returns their outcomes in order: each
/// unsampled point `i` on `trace(i)` under a `label(i)` span, and each
/// stream of [`plan_units`] over one emulator pass under a
/// `stream:<workload>` span. `progress` ticks once per point.
fn run_points<'t, P: PhaseSink>(
    points: &[&SimPoint<'_>],
    trace: impl Fn(usize) -> &'t Trace + Sync,
    label: impl Fn(usize) -> String + Sync,
    workers: usize,
    phases: &P,
    progress: &Progress,
) -> Vec<SchemeOutcome> {
    let units = plan_units(points, workers);
    let done = par_map_metered(
        &units,
        workers,
        phases,
        &Progress::off(),
        |unit| match unit {
            Unit::One(i) => label(*i),
            Unit::Stream(g) => format!("{STREAM_PREFIX}{}", points[g[0]].workload),
        },
        |outs: &Vec<SchemeOutcome>| {
            outs.iter().fold((0, 0), |(c, n), o| {
                (c + o.stats.cycles, n + o.stats.instructions)
            })
        },
        |unit| {
            let outs = match unit {
                Unit::One(i) => {
                    let p = points[*i];
                    vec![run_scheme(trace(*i), p.scheme, &p.config)]
                }
                Unit::Stream(g) => {
                    let p = points[g[0]];
                    let spec = p.config.sample.expect("a stream holds sampled points");
                    let members: Vec<(SchemeKind, &SimConfig)> = g
                        .iter()
                        .map(|&i| (points[i].scheme, &points[i].config))
                        .collect();
                    run_sampled_stream(&workload(p.workload), p.budget, spec, &members)
                }
            };
            for o in &outs {
                progress.tick(o.stats.cycles);
            }
            outs
        },
    );
    let mut outcomes: Vec<Option<SchemeOutcome>> = points.iter().map(|_| None).collect();
    for (unit, outs) in units.iter().zip(done) {
        let slots = match unit {
            Unit::One(i) => std::slice::from_ref(i),
            Unit::Stream(g) => g.as_slice(),
        };
        for (&i, o) in slots.iter().zip(outs) {
            outcomes[i] = Some(o);
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every point belongs to one unit"))
        .collect()
}

/// What [`simulate_cached`] returns: every item's outcome (input order,
/// with provenance and keys) and the traces it built, at most one per
/// distinct `(workload, budget)`, in first-seen order. Sampled items never
/// build a trace.
pub struct SimRun<'a> {
    pub outcomes: CachedBatch<SchemeOutcome>,
    pub traces: Vec<((&'a str, u64), Trace)>,
}

/// The one cached-simulation executor behind `figs`, `runner` and
/// `serve`. Each item names a [`SimPoint`] through `point`.
///
/// Unsampled items run on a trace. With a disabled service each distinct
/// `(workload, budget)` trace an unsampled item or `also_trace` needs is
/// built once, in parallel, under a lane-0 `build_traces` span (one
/// `trace:<name>` span per trace). Sampled items never build a trace: the
/// ones sharing `(workload, budget, SampleSpec)` run as one stream, whose
/// windows are taken from the emulator once and run through every member
/// (see [`run_sampled_stream`]), so a sampled run's memory does not grow
/// with its budget. Every executed item runs on the pool under a lane-0
/// `simulate` span: an unsampled one under a `label(item)` span, a stream
/// under a `stream:<name>` span.
///
/// With an enabled service every item is keyed with [`sim_request_doc`]
/// over its workload's fingerprint, and a trace is built only when it is
/// needed: the first pass (under `build_traces`) builds the traces whose
/// fingerprint this process has not memoized yet and that an unsampled
/// item needs, fingerprinting each once, plus every `also_trace` entry. A
/// `(workload, budget)` only sampled items need is fingerprinted instead
/// from its record stream, storing nothing (under `fingerprint_streams`,
/// one `fingerprint:<name>` span each). Under `simulate`, charged with the
/// misses' simulated work, it answers hits with their stored
/// [`SchemeOutcome`], builds the traces that unsampled misses still lack
/// (no fingerprint), and runs the misses. A batch of hits whose
/// fingerprints are memoized therefore builds and fingerprints nothing.
///
/// `also_trace` adds traces no item simulates but the caller reads; they
/// are always built and returned.
///
/// # Panics
///
/// Panics if an item or `also_trace` names an unknown workload.
#[allow(clippy::too_many_arguments)]
pub fn simulate_cached<'a, T, F, L, P>(
    service: &SimService,
    items: &'a [T],
    point: F,
    also_trace: &[(&'a str, u64)],
    workers: usize,
    phases: &P,
    progress: &Progress,
    label: L,
) -> SimRun<'a>
where
    T: Sync,
    F: Fn(&'a T) -> SimPoint<'a>,
    L: Fn(&T) -> String + Sync,
    P: PhaseSink,
{
    let mut needs: Vec<(&'a str, u64)> = Vec::new();
    let mut trace_index = |need: (&'a str, u64)| match needs.iter().position(|&n| n == need) {
        Some(i) => i,
        None => {
            needs.push(need);
            needs.len() - 1
        }
    };
    for &need in also_trace {
        trace_index(need);
    }
    let jobs: Vec<(&'a T, SimPoint<'a>, usize)> = items
        .iter()
        .map(|item| {
            let p = point(item);
            let t = trace_index((p.workload, p.budget));
            (item, p, t)
        })
        .collect();

    // A need is traced when the caller reads it or an unsampled item runs
    // on it; a need only sampled items have is only ever streamed.
    let mut traced: Vec<bool> = needs.iter().map(|n| also_trace.contains(n)).collect();
    let mut simulated = vec![false; needs.len()];
    for (_, p, t) in &jobs {
        traced[*t] |= p.config.sample.is_none();
        simulated[*t] = true;
    }

    // The first pass builds what a disabled service simulates (every traced
    // need), and what an enabled one reads or cannot key without building:
    // `also_trace`, and each traced need of unknown fingerprint.
    let enabled = service.enabled();
    let mut fingerprints: Vec<Option<u64>> = needs
        .iter()
        .map(|&(w, budget)| enabled.then(|| memoized_fingerprint(w, budget)).flatten())
        .collect();
    let first: Vec<usize> = (0..needs.len())
        .filter(|&t| traced[t] && (also_trace.contains(&needs[t]) || fingerprints[t].is_none()))
        .collect();
    let traces: Vec<OnceLock<Trace>> = needs.iter().map(|_| OnceLock::new()).collect();
    let mut span = phases.span(0, "build_traces");
    let built = build_traces(
        &needs,
        &first,
        |t| enabled && simulated[t] && fingerprints[t].is_none(),
        workers,
        phases,
    );
    span.charge(0, built.iter().map(|(t, _)| t.len() as u64).sum(), 0);
    span.finish();
    for (&t, (trace, fingerprint)) in first.iter().zip(built) {
        if fingerprint.is_some() {
            fingerprints[t] = fingerprint;
        }
        let _ = traces[t].set(trace);
    }

    // An enabled service keys a stream-only need of unknown fingerprint
    // from a streaming pass that stores nothing.
    let streamed: Vec<usize> = (0..needs.len())
        .filter(|&t| enabled && !traced[t] && fingerprints[t].is_none())
        .collect();
    if !streamed.is_empty() {
        let mut span = phases.span(0, "fingerprint_streams");
        let hashed = stream_fingerprints(&needs, &streamed, workers, phases);
        span.charge(0, hashed.iter().map(|&(_, n)| n).sum(), 0);
        span.finish();
        for (&t, (fingerprint, _)) in streamed.iter().zip(hashed) {
            fingerprints[t] = Some(fingerprint);
        }
    }

    let mut span = phases.span(0, "simulate");
    let outcomes = par_map_cached(
        service,
        &jobs,
        |(_, p, t)| {
            let fingerprint =
                fingerprints[*t].expect("an enabled service knows every item's fingerprint");
            sim_request_doc(fingerprint, p.budget, p.scheme.name(), &p.config)
        },
        |_, payload| SchemeOutcome::from_json(payload).ok(),
        |o: &SchemeOutcome| (o.stats.cycles, o.stats.instructions),
        |todo| {
            let mut second: Vec<usize> = todo
                .iter()
                .filter(|(_, p, _)| p.config.sample.is_none())
                .map(|&&(_, _, t)| t)
                .filter(|&t| traces[t].get().is_none())
                .collect();
            second.sort_unstable();
            second.dedup();
            if !second.is_empty() {
                let built = build_traces(&needs, &second, |_| false, workers, phases);
                for (&t, (trace, _)) in second.iter().zip(built) {
                    let _ = traces[t].set(trace);
                }
            }
            let points: Vec<&SimPoint<'a>> = todo.iter().map(|(_, p, _)| p).collect();
            run_points(
                &points,
                |i| {
                    traces[todo[i].2]
                        .get()
                        .expect("every executed unsampled item's trace is built")
                },
                |i| label(todo[i].0),
                workers,
                phases,
                progress,
            )
        },
    );
    span.charge(
        outcomes.executed.sim_cycles,
        outcomes.executed.instructions,
        outcomes.executed.jobs,
    );
    span.finish();
    SimRun {
        outcomes,
        traces: needs
            .into_iter()
            .zip(traces)
            .filter_map(|(need, trace)| Some((need, trace.into_inner()?)))
            .collect(),
    }
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
    use lvp_obs::NullPhases;

    // The fingerprint memo is process-wide, so each test below simulates
    // at budgets no other test uses.

    type Item = (&'static str, u64, SchemeKind);

    fn sim<'a>(service: &SimService, items: &'a [Item], also: &[(&'a str, u64)]) -> SimRun<'a> {
        simulate_cached(
            service,
            items,
            |&(workload, budget, scheme)| SimPoint {
                workload,
                budget,
                scheme,
                config: SimConfig::default(),
            },
            also,
            2,
            &NullPhases,
            &Progress::off(),
            |_| String::new(),
        )
    }

    fn traced<'a>(run: &SimRun<'a>) -> Vec<(&'a str, u64)> {
        run.traces.iter().map(|&(need, _)| need).collect()
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
        let run = sim(&svc, &items, &[]);
        for (i, &(w, budget, scheme)) in items.iter().enumerate() {
            let fresh = lvp_workloads::by_name(w)
                .expect("registered workload")
                .trace(budget)
                .fingerprint();
            assert_eq!(memoized_fingerprint(w, budget), Some(fresh), "{w}@{budget}");
            let doc = sim_request_doc(fresh, budget, scheme.name(), &SimConfig::default());
            assert_eq!(run.outcomes.keys[i], svc.key(&doc), "{w}@{budget}");
        }
    }

    #[test]
    fn warm_hit_only_batch_builds_and_fingerprints_nothing() {
        let items: Vec<Item> = vec![
            ("aifirf", 1_401, SchemeKind::Baseline),
            ("aifirf", 1_401, SchemeKind::Dlvp),
            ("nat", 1_401, SchemeKind::Baseline),
        ];
        let svc = SimService::in_memory();
        let cold = sim(&svc, &items, &[]);
        assert_eq!(traced(&cold), [("aifirf", 1_401), ("nat", 1_401)]);
        assert_eq!(cold.outcomes.provenance, [Provenance::Computed; 3]);

        let warm = sim(&svc, &items, &[]);
        assert!(
            traced(&warm).is_empty(),
            "a warm hit-only batch traces nothing"
        );
        assert_eq!(warm.outcomes.provenance, [Provenance::Store; 3]);
        assert_eq!(warm.outcomes.executed, ExecutedWork::default());
        assert_eq!(warm.outcomes.keys, cold.outcomes.keys);
        assert_eq!(warm.outcomes.results, cold.outcomes.results);

        // A trace the caller reads is built even when every item hits.
        let read = sim(&svc, &items, &[("nat", 1_401)]);
        assert_eq!(traced(&read), [("nat", 1_401)]);
        assert_eq!(read.outcomes.provenance, [Provenance::Store; 3]);
    }

    #[test]
    fn mixed_batch_traces_exactly_the_workloads_that_miss() {
        let svc = SimService::in_memory();
        let warmed: Vec<Item> = vec![
            ("aifirf", 1_501, SchemeKind::Baseline),
            ("nat", 1_501, SchemeKind::Baseline),
        ];
        sim(&svc, &warmed, &[]);
        let mut mixed = warmed.clone();
        // A known fingerprint that misses, then an unknown one.
        mixed.push(("aifirf", 1_501, SchemeKind::Dlvp));
        mixed.push(("gzip", 1_501, SchemeKind::Baseline));
        let run = sim(&svc, &mixed, &[]);
        assert_eq!(traced(&run), [("aifirf", 1_501), ("gzip", 1_501)]);
        use Provenance::{Computed, Store};
        assert_eq!(run.outcomes.provenance, [Store, Store, Computed, Computed]);
        let fresh = sim(&SimService::disabled(), &mixed, &[]);
        assert_eq!(run.outcomes.results, fresh.outcomes.results);
    }

    #[test]
    fn disabled_service_builds_every_trace_and_fingerprints_none() {
        let items: Vec<Item> = vec![
            ("aifirf", 1_601, SchemeKind::Baseline),
            ("nat", 1_601, SchemeKind::Baseline),
            ("aifirf", 1_601, SchemeKind::Dlvp),
        ];
        for _ in 0..2 {
            let run = sim(&SimService::disabled(), &items, &[]);
            assert_eq!(traced(&run), [("aifirf", 1_601), ("nat", 1_601)]);
            assert!(run.outcomes.keys.is_empty());
            assert_eq!(run.outcomes.provenance, [Provenance::Computed; 3]);
        }
        assert_eq!(memoized_fingerprint("aifirf", 1_601), None);
    }

    #[test]
    fn streams_group_sampled_points_and_split_to_fill_the_pool() {
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
        let shape = |workers| -> Vec<Vec<usize>> {
            plan_units(&refs, workers)
                .into_iter()
                .map(|u| match u {
                    Unit::One(i) => vec![i],
                    Unit::Stream(g) => g,
                })
                .collect()
        };
        let grouped = [vec![0, 3, 6], vec![2, 5, 8], vec![1], vec![4], vec![7]];
        assert_eq!(shape(1), grouped);
        assert_eq!(shape(5), grouped);
        let split = shape(7);
        assert_eq!(split.len(), 7);
        let mut covered: Vec<usize> = split.concat();
        covered.sort_unstable();
        assert_eq!(
            covered,
            (0..9).collect::<Vec<_>>(),
            "every point in one unit"
        );

        // The outcomes do not depend on how the streams were split.
        let items: Vec<Item> = vec![
            ("aifirf", 9_001, SchemeKind::Baseline),
            ("aifirf", 9_001, SchemeKind::Dlvp),
            ("aifirf", 9_001, SchemeKind::Vtage),
        ];
        let run = |workers| {
            simulate_cached(
                &SimService::disabled(),
                &items,
                |&(workload, budget, scheme)| SimPoint {
                    budget,
                    ..point(workload, scheme, Some(spec))
                },
                &[],
                workers,
                &NullPhases,
                &Progress::off(),
                |_| String::new(),
            )
            .outcomes
            .results
        };
        assert_eq!(run(1), run(3));
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
