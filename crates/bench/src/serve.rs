//! Sim-as-a-service: a long-running batch server over a file queue.
//!
//! One warm process owns the [`SimService`] (and its memo/store) and farms
//! sim requests for any number of clients, so a sweep split across many
//! short-lived CLI invocations still pays for each unique simulation once.
//! The transport is deliberately primitive — a directory of JSON files —
//! because the queue then needs no daemon to inspect, survives crashes of
//! either side, and claims are atomic on every POSIX filesystem:
//!
//! ```text
//! queue/
//!   tmp/   in-progress writes (never read by anyone)
//!   new/   submitted batches: <id>.json, atomically renamed from tmp/
//!   work/  claimed batches: the server renames new/<id>.json here
//!   done/  responses: <id>.jsonl, one provenance line per request
//! ```
//!
//! A batch is `{"schema_version": 1, "id": ..., "jobs": [JobSpec...]}`; the
//! response is JSON-lines, one object per job **in request order** with
//! per-request provenance: the canonical store `key`, and whether the
//! outcome came from the store (`"store"`), was computed (`"computed"`), or
//! was coalesced onto an identical in-flight request (`"deduped"`).
//!
//! The same request/response documents flow over the optional Unix socket
//! (`--socket`): one compact request line in, response lines out. The
//! socket exists for latency (no polling); the file queue is the durable
//! path and the only one the runner's `--client` mode uses.

use crate::experiments::{run_scheme, SchemeOutcome};
use crate::runner::{par_map, ConfigVariant, JobResult, JobSpec, MatrixResults, MatrixSpec};
use crate::service::{par_map_cached, sim_request_doc, Provenance};
use crate::telemetry::Progress;
use dlvp::SchemeKind;
use lvp_json::{Json, ToJson};
use lvp_obs::NullPhases;
use lvp_store::SimService;
use lvp_uarch::SampleSpec;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

/// Version stamp on every batch request; bumped when the job document
/// shape changes so a stale client fails loudly instead of mis-parsing.
pub const QUEUE_SCHEMA_VERSION: u64 = 1;

/// Serializes one job spec for the queue. The `sample` key appears only
/// when sampling is on, mirroring [`MatrixSpec::to_json`].
pub fn job_to_json(spec: &JobSpec) -> Json {
    let mut pairs = vec![
        ("workload", spec.workload.to_json()),
        ("scheme", Json::Str(spec.scheme.name().to_string())),
        ("variant", spec.variant.to_json()),
        ("budget", spec.budget.to_json()),
    ];
    if let Some(sample) = &spec.sample {
        pairs.push(("sample", sample.to_json()));
    }
    Json::obj(pairs)
}

/// Parses one queued job spec (the inverse of [`job_to_json`]).
pub fn job_from_json(j: &Json) -> Result<JobSpec, String> {
    let workload = j
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("job missing 'workload'")?
        .to_string();
    let scheme_name = j
        .get("scheme")
        .and_then(Json::as_str)
        .ok_or("job missing 'scheme'")?;
    let scheme = SchemeKind::from_name(scheme_name)
        .ok_or_else(|| format!("unknown scheme '{scheme_name}'"))?;
    let variant_name = j
        .get("variant")
        .and_then(Json::as_str)
        .ok_or("job missing 'variant'")?;
    let variant = ConfigVariant::from_name(variant_name)
        .ok_or_else(|| format!("unknown variant '{variant_name}'"))?;
    let budget = j
        .get("budget")
        .and_then(Json::as_u64)
        .ok_or("job missing 'budget'")?;
    let sample = j
        .get("sample")
        .map(SampleSpec::from_json)
        .transpose()
        .map_err(|e| format!("job sample: {e}"))?;
    Ok(JobSpec {
        workload,
        scheme,
        variant,
        budget,
        sample,
    })
}

/// One submitted batch of sim requests.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// Client-chosen id; names the queue files, echoed in every response
    /// line.
    pub id: String,
    pub jobs: Vec<JobSpec>,
}

impl BatchRequest {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", QUEUE_SCHEMA_VERSION.to_json()),
            ("id", self.id.to_json()),
            (
                "jobs",
                Json::Array(self.jobs.iter().map(job_to_json).collect()),
            ),
        ])
    }

    pub fn parse(text: &str) -> Result<BatchRequest, String> {
        let j = Json::parse(text).map_err(|e| format!("malformed batch request: {e}"))?;
        let version = j
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("batch missing 'schema_version'")?;
        if version != QUEUE_SCHEMA_VERSION {
            return Err(format!(
                "batch schema_version {version}, this server speaks {QUEUE_SCHEMA_VERSION}"
            ));
        }
        let id = j
            .get("id")
            .and_then(Json::as_str)
            .ok_or("batch missing 'id'")?
            .to_string();
        if id.is_empty() || !id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-') {
            return Err(format!(
                "batch id '{id}' must be non-empty [a-zA-Z0-9-] (it names queue files)"
            ));
        }
        let jobs = j
            .get("jobs")
            .and_then(Json::as_array)
            .ok_or("batch missing 'jobs'")?
            .iter()
            .map(job_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BatchRequest { id, jobs })
    }
}

/// Creates the queue directory layout (idempotent).
pub fn queue_init(root: &Path) -> std::io::Result<()> {
    for sub in ["tmp", "new", "work", "done"] {
        std::fs::create_dir_all(root.join(sub))?;
    }
    Ok(())
}

/// Atomically submits a batch: written to `tmp/`, then renamed into
/// `new/` so the server never observes a half-written request.
pub fn submit(root: &Path, req: &BatchRequest) -> std::io::Result<PathBuf> {
    queue_init(root)?;
    let tmp = root.join("tmp").join(format!("{}.json", req.id));
    let dst = root.join("new").join(format!("{}.json", req.id));
    std::fs::write(&tmp, req.to_json().pretty() + "\n")?;
    std::fs::rename(&tmp, &dst)?;
    Ok(dst)
}

/// Claims the next pending batch by renaming `new/<id>.json` into `work/`.
/// The rename is atomic, so concurrent servers never double-claim; ids are
/// scanned in sorted order so a backlog drains deterministically.
pub fn claim_next(root: &Path) -> Option<(String, PathBuf)> {
    let mut ids: Vec<String> = std::fs::read_dir(root.join("new"))
        .ok()?
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_suffix(".json").map(str::to_string)
        })
        .collect();
    ids.sort_unstable();
    for id in ids {
        let src = root.join("new").join(format!("{id}.json"));
        let dst = root.join("work").join(format!("{id}.json"));
        if std::fs::rename(&src, &dst).is_ok() {
            return Some((id, dst));
        }
    }
    None
}

/// Publishes a batch's response lines as `done/<id>.jsonl` (atomic
/// tmp+rename) and retires the claimed request file.
pub fn complete(root: &Path, id: &str, lines: &[Json]) -> std::io::Result<()> {
    let mut text = String::new();
    for line in lines {
        text.push_str(&line.compact());
        text.push('\n');
    }
    let tmp = root.join("tmp").join(format!("{id}.jsonl"));
    let dst = root.join("done").join(format!("{id}.jsonl"));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, &dst)?;
    let _ = std::fs::remove_file(root.join("work").join(format!("{id}.json")));
    Ok(())
}

/// Executes a batch behind the service and returns one response line per
/// job, in request order, with its store `key` and [`Provenance`]. The
/// batch runs through [`par_map_cached`], so identical requests are
/// coalesced in flight: duplicates of a canonical key simulate once and
/// report `"deduped"`. Jobs naming unknown workloads get an `"error"` line
/// instead of poisoning the whole batch.
pub fn execute_batch(req: &BatchRequest, service: &SimService, workers: usize) -> Vec<Json> {
    // Response lines always carry keys, so a disabled service is stood in
    // for by a batch-local memo.
    let local;
    let service = if service.enabled() {
        service
    } else {
        local = SimService::in_memory();
        &local
    };

    // Trace and fingerprint each unique (workload, budget) once, shared
    // across the batch.
    let valid: Vec<&JobSpec> = req
        .jobs
        .iter()
        .filter(|job| lvp_workloads::by_name(&job.workload).is_some())
        .collect();
    let mut trace_specs: Vec<(&str, u64)> = Vec::new();
    for job in &valid {
        if !trace_specs.contains(&(&job.workload, job.budget)) {
            trace_specs.push((&job.workload, job.budget));
        }
    }
    let traces: Vec<(lvp_trace::Trace, u64)> = par_map(&trace_specs, workers, |&(w, budget)| {
        let trace = lvp_workloads::by_name(w)
            .expect("trace_specs holds only known workloads")
            .trace(budget);
        let fingerprint = trace.fingerprint();
        (trace, fingerprint)
    });
    let trace_of = |job: &JobSpec| {
        let i = trace_specs
            .iter()
            .position(|&(w, b)| w == job.workload && b == job.budget)
            .expect("valid jobs are traced");
        &traces[i]
    };
    let batch = par_map_cached(
        service,
        &valid,
        |job| {
            sim_request_doc(
                trace_of(job).1,
                job.budget,
                job.scheme.name(),
                &job.config(),
            )
        },
        |_, payload| SchemeOutcome::from_json(payload).ok(),
        workers,
        &NullPhases,
        &Progress::off(),
        |_| String::new(),
        |_| (0, 0),
        |job| run_scheme(&trace_of(job).0, job.scheme, &job.config()),
    );

    // Fan results back out to request order.
    let mut answered = batch
        .keys
        .into_iter()
        .zip(batch.provenance)
        .zip(batch.results);
    req.jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let mut pairs = vec![("id", req.id.to_json()), ("index", (i as u64).to_json())];
            if lvp_workloads::by_name(&job.workload).is_some() {
                let ((key, prov), outcome) = answered.next().expect("one answer per valid job");
                pairs.push(("key", key.to_json()));
                pairs.push(("source", Json::Str(prov.name().to_string())));
                pairs.push(("outcome", outcome.to_json()));
            } else {
                pairs.push((
                    "error",
                    Json::Str(format!("unknown workload '{}'", job.workload)),
                ));
            }
            Json::obj(pairs)
        })
        .collect()
}

/// Server configuration (mirrors the `serve` binary's flags).
pub struct ServeConfig {
    pub queue: PathBuf,
    pub workers: usize,
    /// Drain the pending queue, then exit (CI and tests).
    pub once: bool,
    /// Sleep between queue scans when idle.
    pub poll_ms: u64,
    /// Optional Unix socket path for low-latency clients.
    pub socket: Option<PathBuf>,
    pub quiet: bool,
}

/// Counters the server reports on exit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    pub batches: u64,
    pub jobs: u64,
    pub errors: u64,
}

fn handle_claimed(
    cfg: &ServeConfig,
    service: &SimService,
    id: &str,
    path: &Path,
    stats: &mut ServeStats,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let lines = match BatchRequest::parse(&text) {
        Ok(req) => {
            if req.id != id {
                vec![Json::obj([
                    ("id", id.to_json()),
                    (
                        "error",
                        Json::Str(format!("batch id '{}' does not match filename", req.id)),
                    ),
                ])]
            } else {
                if !cfg.quiet {
                    eprintln!("serve: batch {} ({} jobs)", req.id, req.jobs.len());
                }
                stats.jobs += req.jobs.len() as u64;
                execute_batch(&req, service, cfg.workers)
            }
        }
        Err(e) => vec![Json::obj([("id", id.to_json()), ("error", e.to_json())])],
    };
    stats.batches += 1;
    stats.errors += lines.iter().filter(|l| l.get("error").is_some()).count() as u64;
    complete(&cfg.queue, id, &lines).map_err(|e| format!("cannot publish {id}: {e}"))
}

#[cfg(unix)]
fn handle_socket_conn(
    stream: std::os::unix::net::UnixStream,
    service: &SimService,
    workers: usize,
) -> std::io::Result<()> {
    let mut reader = std::io::BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let lines = match BatchRequest::parse(&line) {
        Ok(req) => execute_batch(&req, service, workers),
        Err(e) => vec![Json::obj([("error", e.to_json())])],
    };
    let mut stream = reader.into_inner();
    for l in &lines {
        stream.write_all(l.compact().as_bytes())?;
        stream.write_all(b"\n")?;
    }
    stream.flush()
}

/// Runs the batch server: drains `queue/new/`, serving each claimed batch
/// through `service`, until interrupted (or immediately after the backlog
/// with [`ServeConfig::once`]). A non-blocking Unix socket, when
/// configured, is polled between queue scans.
pub fn serve(cfg: &ServeConfig, service: &SimService) -> Result<ServeStats, String> {
    queue_init(&cfg.queue).map_err(|e| format!("cannot init queue: {e}"))?;
    #[cfg(unix)]
    let listener = match &cfg.socket {
        Some(path) => {
            let _ = std::fs::remove_file(path);
            let l = std::os::unix::net::UnixListener::bind(path)
                .map_err(|e| format!("cannot bind {}: {e}", path.display()))?;
            l.set_nonblocking(true)
                .map_err(|e| format!("cannot set socket non-blocking: {e}"))?;
            Some(l)
        }
        None => None,
    };
    #[cfg(not(unix))]
    if cfg.socket.is_some() {
        return Err("--socket requires a Unix platform".to_string());
    }

    let mut stats = ServeStats::default();
    loop {
        let mut idle = true;
        while let Some((id, path)) = claim_next(&cfg.queue) {
            idle = false;
            if let Err(e) = handle_claimed(cfg, service, &id, &path, &mut stats) {
                eprintln!("serve: {e}");
                stats.errors += 1;
            }
        }
        #[cfg(unix)]
        if let Some(listener) = &listener {
            while let Ok((conn, _)) = listener.accept() {
                idle = false;
                stats.batches += 1;
                let _ = conn.set_nonblocking(false);
                if let Err(e) = handle_socket_conn(conn, service, cfg.workers) {
                    eprintln!("serve: socket connection failed: {e}");
                    stats.errors += 1;
                }
            }
        }
        if cfg.once {
            return Ok(stats);
        }
        if idle {
            std::thread::sleep(std::time::Duration::from_millis(cfg.poll_ms.max(1)));
        }
    }
}

/// Submits a batch and blocks until its response appears in `done/`.
pub fn submit_and_wait(
    root: &Path,
    req: &BatchRequest,
    poll_ms: u64,
    timeout_ms: u64,
) -> Result<Vec<Json>, String> {
    submit(root, req).map_err(|e| format!("cannot submit batch: {e}"))?;
    let done = root.join("done").join(format!("{}.jsonl", req.id));
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(timeout_ms);
    loop {
        if done.exists() {
            let text = std::fs::read_to_string(&done)
                .map_err(|e| format!("cannot read {}: {e}", done.display()))?;
            return text
                .lines()
                .map(|l| Json::parse(l).map_err(|e| format!("malformed response line: {e}")))
                .collect();
        }
        if std::time::Instant::now() >= deadline {
            return Err(format!(
                "timed out after {timeout_ms}ms waiting for {}",
                done.display()
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms.max(1)));
    }
}

/// A fresh, filesystem-safe batch id: a hash of the jobs plus process id
/// and a submission counter, so concurrent clients (and repeated
/// submissions from one client) never collide on queue filenames.
pub fn fresh_batch_id(jobs: &[JobSpec]) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for job in jobs {
        for b in job_to_json(job).canonical().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    format!(
        "b{h:016x}-{}-{}-{nanos:x}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// Runs a matrix through a serve-mode queue instead of the local pool: the
/// expanded job list is submitted as one batch and the response lines are
/// reassembled into the same [`MatrixResults`] — byte-identical to a local
/// run — plus per-provenance counts for reporting.
pub fn client_run_matrix(
    root: &Path,
    spec: &MatrixSpec,
    poll_ms: u64,
    timeout_ms: u64,
) -> Result<(MatrixResults, HashMap<&'static str, u64>), String> {
    let jobs = spec.expand();
    let req = BatchRequest {
        id: fresh_batch_id(&jobs),
        jobs: jobs.clone(),
    };
    let lines = submit_and_wait(root, &req, poll_ms, timeout_ms)?;
    if lines.len() != jobs.len() {
        return Err(format!(
            "server answered {} lines for {} jobs",
            lines.len(),
            jobs.len()
        ));
    }
    let mut sources: HashMap<&'static str, u64> = HashMap::new();
    let mut outcomes: Vec<Option<SchemeOutcome>> = vec![None; jobs.len()];
    for line in &lines {
        if let Some(e) = line.get("error").and_then(Json::as_str) {
            return Err(format!("server error: {e}"));
        }
        let index = line
            .get("index")
            .and_then(Json::as_u64)
            .ok_or("response line missing 'index'")? as usize;
        if index >= jobs.len() || outcomes[index].is_some() {
            return Err(format!("response line has bad index {index}"));
        }
        let source = line
            .get("source")
            .and_then(Json::as_str)
            .ok_or("response line missing 'source'")?;
        let prov = Provenance::from_name(source)
            .ok_or_else(|| format!("unknown provenance '{source}'"))?;
        *sources.entry(prov.name()).or_insert(0) += 1;
        let outcome = line
            .get("outcome")
            .ok_or("response line missing 'outcome'")?;
        outcomes[index] =
            Some(SchemeOutcome::from_json(outcome).map_err(|e| format!("bad outcome: {e}"))?);
    }
    let results = jobs
        .into_iter()
        .zip(outcomes)
        .map(|(job, outcome)| {
            let suite = lvp_workloads::by_name(&job.workload)
                .map(|w| w.suite.to_string())
                .unwrap_or_default();
            JobResult {
                seed: job.seed(),
                suite,
                spec: job,
                outcome: outcome.expect("every index filled exactly once"),
            }
        })
        .collect();
    Ok((
        MatrixResults {
            spec: spec.clone(),
            jobs: results,
        },
        sources,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_matrix;

    fn tiny_spec() -> MatrixSpec {
        MatrixSpec {
            workloads: vec!["aifirf".to_string(), "nat".to_string()],
            schemes: vec![SchemeKind::Baseline, SchemeKind::Dlvp],
            variants: vec![ConfigVariant::Default],
            budget: 4_000,
            sample: None,
        }
    }

    fn temp_queue(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lvp-queue-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn job_specs_round_trip_through_queue_json() {
        for job in tiny_spec().expand() {
            let back = job_from_json(&job_to_json(&job)).expect("round trip");
            assert_eq!(back, job);
        }
        let mut sampled = tiny_spec();
        sampled.sample = Some(SampleSpec {
            ff: 1_000,
            warmup: 200,
            detail: 300,
            period: 1_000,
        });
        for job in sampled.expand() {
            assert_eq!(job_from_json(&job_to_json(&job)).expect("round trip"), job);
        }
        assert!(job_from_json(&Json::obj([("workload", Json::Str("x".into()))])).is_err());
    }

    #[test]
    fn batch_request_rejects_bad_schema_and_ids() {
        let req = BatchRequest {
            id: "batch-1".to_string(),
            jobs: tiny_spec().expand(),
        };
        let back = BatchRequest::parse(&req.to_json().pretty()).expect("round trip");
        assert_eq!(back, req);
        let wrong_version = req
            .to_json()
            .pretty()
            .replace("\"schema_version\": 1", "\"schema_version\": 99");
        assert!(BatchRequest::parse(&wrong_version).is_err());
        let bad_id = BatchRequest {
            id: "../escape".to_string(),
            jobs: vec![],
        };
        assert!(BatchRequest::parse(&bad_id.to_json().pretty()).is_err());
    }

    #[test]
    fn queue_claim_is_exclusive_and_ordered() {
        let root = temp_queue("claim");
        submit(
            &root,
            &BatchRequest {
                id: "b-2".into(),
                jobs: vec![],
            },
        )
        .expect("submit");
        submit(
            &root,
            &BatchRequest {
                id: "b-1".into(),
                jobs: vec![],
            },
        )
        .expect("submit");
        let (first, _) = claim_next(&root).expect("claim");
        assert_eq!(first, "b-1", "backlog drains in sorted id order");
        let (second, _) = claim_next(&root).expect("claim");
        assert_eq!(second, "b-2");
        assert!(claim_next(&root).is_none());
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn served_batch_dedups_in_flight_and_matches_local_run() {
        let spec = tiny_spec();
        let mut jobs = spec.expand();
        let dup = jobs[0].clone();
        jobs.push(dup); // identical in-flight request
        let req = BatchRequest {
            id: "b-dedup".into(),
            jobs,
        };
        let service = SimService::in_memory();
        let lines = execute_batch(&req, &service, 2);
        assert_eq!(lines.len(), 5);
        let sources: Vec<&str> = lines
            .iter()
            .map(|l| l.get("source").and_then(Json::as_str).expect("source"))
            .collect();
        assert_eq!(sources[..4], ["computed"; 4]);
        assert_eq!(sources[4], "deduped");
        assert_eq!(service.counters().deduped, 1);
        assert_eq!(
            lines[0].get("outcome").expect("outcome"),
            lines[4].get("outcome").expect("outcome"),
            "deduped line borrows the owner's outcome"
        );

        // The served outcomes are the local runner's outcomes.
        let local = run_matrix(&spec, 2);
        for (line, job) in lines.iter().take(4).zip(&local.jobs) {
            assert_eq!(
                line.get("outcome").expect("outcome"),
                &job.outcome.to_json()
            );
        }
    }

    #[test]
    fn serve_once_answers_client_byte_identically() {
        let root = temp_queue("client");
        let spec = tiny_spec();
        let service = SimService::in_memory();
        let client = std::thread::spawn({
            let root = root.clone();
            let spec = spec.clone();
            move || client_run_matrix(&root, &spec, 5, 60_000)
        });
        let cfg = ServeConfig {
            queue: root.clone(),
            workers: 2,
            once: true,
            poll_ms: 5,
            socket: None,
            quiet: true,
        };
        // Poll serve --once until the client's submission lands and is
        // answered (the client submits asynchronously).
        let mut stats = ServeStats::default();
        while stats.batches == 0 {
            stats = serve(&cfg, &service).expect("serve");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let (results, sources) = client.join().expect("client thread").expect("client run");
        assert_eq!(stats.jobs, 4);
        assert_eq!(stats.errors, 0);
        assert_eq!(sources.get("computed"), Some(&4));
        let local = run_matrix(&spec, 2);
        assert_eq!(
            results.to_json().pretty(),
            local.to_json().pretty(),
            "served matrix must be byte-identical to a local run"
        );

        // A second client run against the same warm server hits the store.
        let client = std::thread::spawn({
            let root = root.clone();
            let spec = spec.clone();
            move || client_run_matrix(&root, &spec, 5, 60_000)
        });
        let mut stats = ServeStats::default();
        while stats.batches == 0 {
            stats = serve(&cfg, &service).expect("serve");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let (warm, sources) = client.join().expect("client thread").expect("client run");
        assert_eq!(sources.get("store"), Some(&4), "warm batch must hit");
        assert_eq!(warm.to_json().pretty(), local.to_json().pretty());
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trips_a_batch() {
        let root = temp_queue("sock");
        let sock = root.join("serve.sock");
        queue_init(&root).expect("init");
        let spec = MatrixSpec {
            workloads: vec!["aifirf".to_string()],
            schemes: vec![SchemeKind::Baseline],
            variants: vec![ConfigVariant::Default],
            budget: 3_000,
            sample: None,
        };
        let req = BatchRequest {
            id: "b-sock".into(),
            jobs: spec.expand(),
        };
        let listener = std::os::unix::net::UnixListener::bind(&sock).expect("bind");
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            let svc = SimService::in_memory();
            handle_socket_conn(conn, &svc, 2).expect("handle");
        });
        let mut conn = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
        conn.write_all((req.to_json().compact() + "\n").as_bytes())
            .expect("send");
        let reader = std::io::BufReader::new(conn);
        let lines: Vec<String> = reader.lines().map(|l| l.expect("line")).collect();
        server.join().expect("server thread");
        assert_eq!(lines.len(), 1);
        let line = Json::parse(&lines[0]).expect("parse");
        assert_eq!(line.get("source").and_then(Json::as_str), Some("computed"));
        assert!(line.get("outcome").is_some());
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}
