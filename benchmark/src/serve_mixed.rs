//! `serve_mixed`: the `serve` batch server under a closed loop of two
//! clients on its Unix socket.
//!
//! Set-up warms an on-disk store in process with the full paper matrix at
//! 100k instructions, then starts `serve --store --socket --jobs 2` (default
//! poll). Each client sends seeded batches of 8 jobs back to back: 9 in 10
//! jobs are population hits, 1 in 10 names a non-default configuration
//! variant and so misses and writes. Simulation is rare; re-tracing,
//! fingerprinting, store and JSON work and the transport dominate, and
//! reads run beside writes.

use crate::harness::{closed_loop, e2e_metrics, peak_rss_mb, repeat_setup, Ctx, Loop, WORKERS};
use crate::layers::{overhead_metric, replay, span_metrics, traced, write_spans, Request};
use crate::report::{Metric, Tally, WorkloadResult};
use crate::stats::median;
use lvp_bench::{
    execute_batch, par_map, run_matrix_serviced, run_scheme, sim_request_doc, BatchRequest,
    ConfigVariant, JobSpec, MatrixResults, MatrixSpec, Progress, SchemeKind, SchemeOutcome,
};
use lvp_json::{Json, ToJson};
use lvp_obs::{NullPhases, PhaseRecorder, PhaseSink};
use lvp_store::SimService;
use lvp_trace::Trace;
use lvp_workloads::Prng;
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const BUDGET: u64 = 100_000;
pub const CLIENTS: usize = 2;
pub const JOBS_PER_BATCH: usize = 8;
/// One job in this many names a non-default configuration variant.
pub const MISS_ONE_IN: u64 = 10;
/// Batches the `--quick` smoke run sends, over both clients.
const QUICK_BATCHES: usize = 20;
/// Batches the traced run replays in process.
const REPLAY_BATCHES: usize = 100;
const SETUP_REPS: usize = 3;
/// A batch not answered within this long counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The population the set-up warms: every workload × scheme, default
/// configuration.
pub fn population() -> MatrixSpec {
    MatrixSpec::full(BUDGET)
}

/// One client's seeded, endless batch stream.
pub struct Stream<'a> {
    rng: Prng,
    id_prefix: String,
    next: usize,
    population: &'a [JobSpec],
    workloads: Vec<&'static str>,
}

impl<'a> Stream<'a> {
    pub fn new(seed: u64, client: usize, population: &'a [JobSpec]) -> Stream<'a> {
        Stream {
            rng: Prng::seed_from_u64(seed.wrapping_mul(256).wrapping_add(client as u64)),
            id_prefix: format!("s{seed}-c{client}"),
            next: 0,
            population,
            workloads: lvp_workloads::names(),
        }
    }

    fn job(&mut self) -> JobSpec {
        let rng = &mut self.rng;
        if rng.below(MISS_ONE_IN) == 0 {
            JobSpec {
                workload: pick(rng, &self.workloads).to_string(),
                scheme: *pick(rng, &SchemeKind::all()),
                variant: *pick(rng, &ConfigVariant::all()[1..]),
                budget: BUDGET,
                sample: None,
            }
        } else {
            pick(rng, self.population).clone()
        }
    }

    pub fn next_batch(&mut self) -> BatchRequest {
        let id = format!("{}-b{}", self.id_prefix, self.next);
        self.next += 1;
        BatchRequest {
            id,
            jobs: (0..JOBS_PER_BATCH).map(|_| self.job()).collect(),
        }
    }
}

fn pick<'x, T>(rng: &mut Prng, xs: &'x [T]) -> &'x T {
    &xs[rng.below(xs.len() as u64) as usize]
}

/// The first `n` batches of all clients' streams, interleaved round-robin.
pub fn interleaved(seed: u64, population: &[JobSpec], n: usize) -> Vec<BatchRequest> {
    let mut streams: Vec<Stream> = (0..CLIENTS)
        .map(|c| Stream::new(seed, c, population))
        .collect();
    (0..n).map(|i| streams[i % CLIENTS].next_batch()).collect()
}

fn job_key(job: &JobSpec) -> String {
    format!(
        "{}/{}/{}",
        job.workload,
        job.scheme.name(),
        job.variant.name()
    )
}

/// A running `serve` child; killed and reaped on drop.
struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    fn start(bin: &Path, dir: &Path, store: &Path) -> Result<Server, String> {
        let socket = dir.join("serve.sock");
        let child = Command::new(bin)
            .arg("--queue")
            .arg(dir.join("queue"))
            .arg("--store")
            .arg(store)
            .arg("--socket")
            .arg(&socket)
            .args(["--jobs", &WORKERS.to_string(), "--quiet"])
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Server { child, socket };
        // Ready once an empty batch comes back.
        let ping = BatchRequest {
            id: "ready".to_string(),
            jobs: vec![],
        };
        let deadline = Instant::now() + IO_TIMEOUT;
        while roundtrip(&server.socket, &request_line(&ping)).is_err() {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("serve did not answer within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(server)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn request_line(req: &BatchRequest) -> String {
    req.to_json().compact() + "\n"
}

/// Sends one request line and reads response lines until the server closes.
fn roundtrip(socket: &Path, line: &str) -> Result<Vec<String>, String> {
    let mut conn = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    conn.set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| conn.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    conn.write_all(line.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut text = String::new();
    conn.read_to_string(&mut text)
        .map_err(|e| format!("receive: {e}"))?;
    Ok(text.lines().map(str::to_string).collect())
}

/// One answered (or failed) batch of the client phase.
struct Sent {
    req: BatchRequest,
    ms: f64,
    end: Instant,
    reply: Result<Vec<String>, String>,
}

/// The timed phase: `CLIENTS` threads, each sending its stream's batches
/// back to back until the time is up.
fn client_phase(ctx: &Ctx, socket: &Path, population: &[JobSpec]) -> (Vec<Sent>, f64) {
    let start = Instant::now();
    let quota = ctx.quick.then_some(QUICK_BATCHES / CLIENTS);
    let sent: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut stream = Stream::new(ctx.seed, c, population);
                    let mut out = Vec::new();
                    loop {
                        let req = stream.next_batch();
                        let line = request_line(&req);
                        let t = Instant::now();
                        let reply = roundtrip(socket, &line);
                        let end = Instant::now();
                        out.push(Sent {
                            req,
                            ms: (end - t).as_secs_f64() * 1e3,
                            end,
                            reply,
                        });
                        let done = match quota {
                            Some(q) => out.len() >= q,
                            None => start.elapsed().as_secs_f64() >= ctx.seconds,
                        };
                        if done {
                            return out;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = sent
        .iter()
        .map(|b| b.end)
        .max()
        .map_or(0.0, |end| (end - start).as_secs_f64());
    (sent, wall)
}

/// Checks every response line: hits against the set-up's in-process
/// results, misses against a fresh in-process `run_scheme` after the timed
/// phase. One operation per job.
fn check_replies(sent: &[Sent], population: &MatrixResults, tally: &mut Tally) {
    let expected: HashMap<String, String> = population
        .jobs
        .iter()
        .map(|j| (job_key(&j.spec), j.outcome.to_json().compact()))
        .collect();
    let mut misses: Vec<(&JobSpec, String)> = Vec::new();
    for b in sent {
        let lines = match &b.reply {
            Ok(lines) if lines.len() == b.req.jobs.len() => lines,
            other => {
                let why = match other {
                    Ok(lines) => format!("{} lines for {} jobs", lines.len(), b.req.jobs.len()),
                    Err(e) => e.clone(),
                };
                for _ in &b.req.jobs {
                    tally.check(false, || format!("batch {}: {why}", b.req.id));
                }
                continue;
            }
        };
        for (i, (job, line)) in b.req.jobs.iter().zip(lines).enumerate() {
            let outcome = Json::parse(line).ok().and_then(|j| {
                let index = j.get("index").and_then(Json::as_f64);
                let ok = index == Some(i as f64) && j.get("error").is_none();
                ok.then(|| j.get("outcome").map(Json::compact)).flatten()
            });
            let Some(outcome) = outcome else {
                tally.check(false, || format!("batch {} line {i}: {line}", b.req.id));
                continue;
            };
            if job.variant == ConfigVariant::Default {
                tally.check(expected.get(&job_key(job)) == Some(&outcome), || {
                    format!(
                        "batch {} line {i}: {} differs from in-process",
                        b.req.id,
                        job_key(job)
                    )
                });
            } else {
                misses.push((job, outcome));
            }
        }
    }

    // Re-simulate each distinct missed job once, trace by trace.
    let mut by_workload: BTreeMap<&str, Vec<&JobSpec>> = BTreeMap::new();
    for &(job, _) in &misses {
        let jobs = by_workload.entry(&job.workload).or_default();
        if !jobs.contains(&job) {
            jobs.push(job);
        }
    }
    let by_workload: Vec<_> = by_workload.into_iter().collect();
    let computed: HashMap<String, String> = par_map(&by_workload, WORKERS, |(w, jobs)| {
        let trace = lvp_workloads::by_name(w)
            .expect("stream jobs name registered workloads")
            .trace(BUDGET);
        jobs.iter()
            .map(|j| {
                let o = run_scheme(&trace, j.scheme, &j.variant.config());
                (job_key(j), o.to_json().compact())
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    for (job, outcome) in misses {
        tally.check(computed.get(&job_key(job)) == Some(&outcome), || {
            format!("miss {} differs from in-process run_scheme", job_key(job))
        });
    }
}

/// Per-batch latency of running `batches` in process through `execute_batch`.
fn execute_pass(
    store: &Path,
    batches: &[BatchRequest],
    workers: usize,
) -> Result<(Vec<f64>, Vec<Vec<Json>>), String> {
    let svc = SimService::open(store).map_err(|e| format!("store: {e}"))?;
    let mut lines = Vec::new();
    let lp = closed_loop(f64::INFINITY, Some(batches.len()), |i| {
        lines.push(execute_batch(&batches[i], &svc, workers));
        Ok(0)
    })?;
    Ok((lp.ms, lines))
}

/// `execute_batch` step by step through the same public layer functions,
/// one worker, with a span around each layer call (lane 1) — so the spans
/// account for the batch's execution time. Its response lines must equal
/// `execute_batch`'s.
fn replay_batch(req: &BatchRequest, svc: &SimService, rec: &PhaseRecorder) -> Vec<Json> {
    const LANE: u32 = 1;
    let mut trace_specs: Vec<(String, u64)> = Vec::new();
    let mut traces: Vec<Trace> = Vec::new();
    for job in &req.jobs {
        let key = (job.workload.clone(), job.budget);
        if trace_specs.contains(&key) {
            continue;
        }
        if let Some(w) = lvp_workloads::by_name(&job.workload) {
            let mut g = rec.span(LANE, &format!("trace:{}", job.workload));
            let t = w.trace(job.budget);
            g.charge(0, t.len() as u64, 1);
            g.finish();
            trace_specs.push(key);
            traces.push(t);
        }
    }
    let trace_of = |job: &JobSpec| {
        trace_specs
            .iter()
            .position(|(w, b)| *w == job.workload && *b == job.budget)
            .map(|i| &traces[i])
    };
    let job_config = |job: &JobSpec| {
        let mut cfg = job.variant.config();
        cfg.sample = job.sample;
        cfg
    };

    let mut keys: Vec<Option<String>> = vec![None; req.jobs.len()];
    let mut owner_of_key: HashMap<String, usize> = HashMap::new();
    let mut owners: Vec<usize> = Vec::new();
    let mut borrowed: Vec<Option<usize>> = vec![None; req.jobs.len()];
    let mut deduped = 0;
    for (i, job) in req.jobs.iter().enumerate() {
        let Some(trace) = trace_of(job) else { continue };
        let mut g = rec.span(LANE, "fingerprint");
        let fp = trace.fingerprint();
        g.charge(0, trace.len() as u64, 1);
        g.finish();
        let key = rec.time(LANE, "store.key", || {
            svc.key(&sim_request_doc(
                fp,
                job.budget,
                job.scheme.name(),
                &job_config(job),
            ))
        });
        match owner_of_key.get(&key) {
            Some(&first) => {
                borrowed[i] = Some(first);
                deduped += 1;
            }
            None => {
                owner_of_key.insert(key.clone(), i);
                owners.push(i);
            }
        }
        keys[i] = Some(key);
    }
    svc.note_deduped(deduped);

    let mut outcomes: Vec<Option<(SchemeOutcome, &str)>> = vec![None; req.jobs.len()];
    let mut misses = Vec::new();
    for &i in &owners {
        let key = keys[i].as_deref().expect("owners are keyed");
        let hit = rec
            .time(LANE, "store.lookup", || svc.lookup(key))
            .and_then(|p| rec.time(LANE, "json.decode", || SchemeOutcome::from_json(&p).ok()));
        match hit {
            Some(o) => outcomes[i] = Some((o, "store")),
            None => misses.push(i),
        }
    }
    for i in misses {
        let job = &req.jobs[i];
        let trace = trace_of(job).expect("missed jobs were keyed, so traced");
        let label = format!(
            "job:{}/{}/{}",
            job.workload,
            job.variant.name(),
            job.scheme.name()
        );
        let mut g = rec.span(LANE, &label);
        let outcome = run_scheme(trace, job.scheme, &job_config(job));
        g.charge(outcome.stats.cycles, outcome.stats.instructions, 1);
        g.finish();
        let payload = rec.time(LANE, "json.encode", || outcome.to_json());
        let key = keys[i].as_deref().expect("missed jobs were keyed");
        if let Err(e) = rec.time(LANE, "store.record", || svc.record(key, &payload)) {
            eprintln!("warning: result store write failed: {e}");
        }
        outcomes[i] = Some((outcome, "computed"));
    }

    rec.time(LANE, "respond", || {
        req.jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let mut pairs = vec![("id", req.id.to_json()), ("index", (i as u64).to_json())];
                match (&keys[i], &outcomes[borrowed[i].unwrap_or(i)]) {
                    (Some(key), Some((outcome, source))) => {
                        let source = if borrowed[i].is_some() {
                            "deduped"
                        } else {
                            source
                        };
                        pairs.push(("key", key.to_json()));
                        pairs.push(("source", Json::Str(source.to_string())));
                        pairs.push(("outcome", outcome.to_json()));
                    }
                    _ => pairs.push((
                        "error",
                        Json::Str(format!("unknown workload '{}'", job.workload)),
                    )),
                }
                Json::obj(pairs)
            })
            .collect()
    })
}

/// Returns the free memory of every glibc malloc arena to the kernel.
#[cfg(target_env = "gnu")]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers and only walks glibc's own
    // arenas under their locks; any `pad` is valid.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(target_env = "gnu"))]
fn release_free_heap() {}

fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), to)?;
        }
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<WorkloadResult, String> {
    let population_spec = population();
    let population_jobs = population_spec.expand();

    // Set-up: warm a fresh store in process, then start a server on it and
    // wait for its first answer. Earlier repetitions' servers stop when
    // dropped; the last one serves the timed phase.
    let (setup_s, mut reps) = repeat_setup(SETUP_REPS, |k| {
        let dir = ctx.out.join(format!("rep{k}"));
        let store = dir.join("store");
        let svc = SimService::open(&store).map_err(|e| format!("store: {e}"))?;
        let results = run_matrix_serviced(
            &population_spec,
            WORKERS,
            &NullPhases,
            &Progress::off(),
            &svc,
        );
        // Each repetition starts from the same heap, so this process's
        // high-water mark is one warm-up's, not an accident of retention.
        release_free_heap();
        let server = Server::start(&ctx.serve_bin, &dir, &store)?;
        Ok((results, server, store))
    })?;
    let (population_results, server, store) = reps.pop().expect("at least one set-up");
    drop(reps);
    // Warm-store snapshots for the in-process passes of the traced run,
    // taken before the server has served anything.
    let snapshots: Vec<PathBuf> = (0..if ctx.traced { 3 } else { 0 })
        .map(|k| ctx.out.join(format!("snapshot{k}")))
        .collect();
    for snap in &snapshots {
        copy_dir(&store, snap).map_err(|e| format!("cannot snapshot the store: {e}"))?;
    }

    let (sent, wall_s) = client_phase(ctx, &server.socket, &population_jobs);
    let server_rss = Metric::new(
        "serve.peak_rss_mb",
        peak_rss_mb(Some(server.child.id()))?,
        "MB",
        1,
    );
    drop(server);
    let mut tally = Tally::default();
    check_replies(&sent, &population_results, &mut tally);
    let client = Loop {
        ms: sent.iter().map(|b| b.ms).collect(),
        instrs: (sent.len() * JOBS_PER_BATCH) as u64 * BUDGET,
        wall_s,
    };
    // The bounded high-water mark is this process's (one in-process store
    // warm-up), as for the other workloads. The server's own swings by a
    // third from run to run with glibc arena retention, so it is reported
    // beside it, unbounded.
    let e2e = e2e_metrics(&setup_s, &client, peak_rss_mb(None)?);
    if !ctx.traced {
        return Ok(ctx.result("serve_mixed", tally, e2e, vec![server_rss]));
    }

    // Traced: the same batch stream in process — through `execute_batch`
    // with the server's two workers and with one, then through the layer
    // replay with one worker, each on its own copy of the warm store.
    let n = if ctx.quick {
        sent.len()
    } else {
        sent.len().min(REPLAY_BATCHES)
    };
    let batches = interleaved(ctx.seed, &population_jobs, n);
    let (exec_ms, _) = execute_pass(&snapshots[0], &batches, WORKERS)?;
    let (exec1_ms, exec1_lines) = execute_pass(&snapshots[1], &batches, 1)?;
    let svc = SimService::open(&snapshots[2]).map_err(|e| format!("store: {e}"))?;
    let start = Instant::now();
    let mut reqs: Vec<Request> = Vec::new();
    for (req, want) in batches.iter().zip(&exec1_lines) {
        let (lines, r) = traced(req.id.clone(), 1, start, |rec| replay_batch(req, &svc, rec));
        for (i, (got, want)) in lines.iter().zip(want).enumerate() {
            tally.check(got.compact() == want.compact(), || {
                format!(
                    "replay of batch {} line {i} differs from execute_batch",
                    req.id
                )
            });
        }
        reqs.push(r);
    }
    write_spans(&ctx.out.join("spans.json"), &reqs)?;

    let mut names: Vec<&'static str> = Vec::new();
    for job in batches.iter().flat_map(|b| &b.jobs) {
        if let Some(w) = lvp_workloads::by_name(&job.workload) {
            if !names.contains(&w.name) {
                names.push(w.name);
            }
        }
    }
    let mut layers = span_metrics(&reqs, BUDGET);
    layers.extend(replay(&names, BUDGET, &ctx.out.join("layer-store"))?);
    let replay_ms: Vec<f64> = reqs.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
    layers.push(overhead_metric(
        exec1_ms.iter().sum(),
        replay_ms.iter().sum(),
        reqs.len(),
    ));

    let lines = (n * JOBS_PER_BATCH) as f64;
    let computed = exec1_lines
        .iter()
        .flatten()
        .filter(|l| l.get("source").and_then(Json::as_str) == Some("computed"))
        .count();
    let fingerprints = reqs
        .iter()
        .flat_map(|r| &r.spans)
        .filter(|s| s.name == "fingerprint")
        .count();
    let span_ns: u64 = reqs.iter().flat_map(|r| &r.spans).map(|s| s.dur_ns).sum();
    let counters = svc.counters();
    let client_p50 = median(&client.ms);
    let extra = [
        e2e,
        vec![
            server_rss,
            Metric::new("serve.execute_ms_p50", median(&exec_ms), "ms", n),
            Metric::new(
                "serve.transport_ms_p50",
                client_p50 - median(&exec_ms),
                "ms",
                n,
            ),
            Metric::new(
                "serve.computed_frac",
                computed as f64 / lines,
                "ratio",
                lines as usize,
            ),
            Metric::new(
                "serve.span_coverage",
                span_ns as f64 / 1e6 / exec1_ms.iter().sum::<f64>(),
                "ratio",
                n,
            ),
            Metric::new(
                "store.hit_ratio",
                counters.hits as f64 / (counters.hits + counters.misses).max(1) as f64,
                "ratio",
                (counters.hits + counters.misses) as usize,
            ),
            Metric::new("store.writes", counters.writes as f64, "count", n),
            Metric::new(
                "trace.fingerprint_calls",
                fingerprints as f64 / n as f64,
                "count",
                n,
            ),
        ],
    ]
    .concat();
    Ok(ctx.result("serve_mixed", tally, layers, extra))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_and_keeps_its_mix() {
        let pop = population().expand();
        assert_eq!(pop.len(), 200);
        let a = interleaved(42, &pop, 300);
        let b = interleaved(42, &pop, 300);
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, interleaved(43, &pop, 300), "seed changes the stream");
        assert_eq!(a[0].id, "s42-c0-b0");
        assert_eq!(a[1].id, "s42-c1-b0");
        assert_eq!(a[2].id, "s42-c0-b1");
        // The interleaving is the per-client streams, round-robin.
        let mut c1 = Stream::new(42, 1, &pop);
        assert_eq!(a[3], {
            c1.next_batch();
            c1.next_batch()
        });

        let jobs: Vec<&JobSpec> = a.iter().flat_map(|b| &b.jobs).collect();
        assert_eq!(jobs.len(), 300 * JOBS_PER_BATCH);
        let misses = jobs
            .iter()
            .filter(|j| j.variant != ConfigVariant::Default)
            .count();
        let frac = misses as f64 / jobs.len() as f64;
        assert!((0.085..=0.115).contains(&frac), "miss share {frac}");
        for j in &jobs {
            assert_eq!(j.budget, BUDGET);
            assert!(j.sample.is_none());
            if j.variant == ConfigVariant::Default {
                assert!(pop.contains(j), "hits come from the population");
            }
        }
    }
}
