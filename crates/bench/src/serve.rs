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
//! socket exists for latency: a dedicated thread accepts connections and
//! reads each request line off the serving thread, so a connecting client
//! wakes the server at once and a client that connects and stays silent
//! holds up nobody. The file queue is the durable path, scanned every
//! `poll_ms`, and the only one the runner's `--client` mode uses. Batches
//! from either transport execute one at a time.
//!
//! Execution goes through [`simulate_cached`], whose fingerprint memo makes
//! a warm server answer a batch of hits from the store alone: nothing is
//! emulated and nothing is fingerprinted. `ServeStats::streamed` counts the
//! `(workload, budget)` pairs a server did emulate to simulate.

use crate::experiments::SchemeOutcome;
use crate::runner::{JobResult, JobSpec, MatrixResults, MatrixSpec};
use crate::service::{simulate_cached, Provenance};
use crate::telemetry::Progress;
use lvp_json::{DecodeError, Fields, Json, ToJson};
use lvp_obs::NullPhases;
use lvp_store::SimService;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

/// Version stamp on every batch request; bumped when the job document
/// shape changes so a stale client fails loudly instead of mis-parsing.
pub const QUEUE_SCHEMA_VERSION: u64 = 1;

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
            ("jobs", self.jobs.to_json()),
        ])
    }

    pub fn parse(text: &str) -> Result<BatchRequest, String> {
        let j = Json::parse(text).map_err(|e| format!("malformed batch request: {e}"))?;
        BatchRequest::decode(&j).map_err(|e| e.to_string())
    }

    /// Every job's sample spec is validated here against its budget, at
    /// the service boundary (as `runner --sample` does), so a degenerate
    /// spec, or one whose budget ends before the first detail window,
    /// fails the whole batch before anything is simulated or stored.
    fn decode(j: &Json) -> Result<BatchRequest, DecodeError> {
        let f = Fields::of(j)?;
        let version: u64 = f.req("schema_version")?;
        if version != QUEUE_SCHEMA_VERSION {
            return Err(DecodeError::new(format!(
                "batch schema_version {version}, this server speaks {QUEUE_SCHEMA_VERSION}"
            ))
            .at("schema_version"));
        }
        let id: String = f.req("id")?;
        if id.is_empty() || !id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-') {
            return Err(DecodeError::new(format!(
                "batch id '{id}' must be non-empty [a-zA-Z0-9-] (it names queue files)"
            ))
            .at("id"));
        }
        let jobs: Vec<JobSpec> = f.req("jobs")?;
        for (i, job) in jobs.iter().enumerate() {
            if let Some(sample) = &job.sample {
                sample.validate_for(job.budget).map_err(|e| {
                    let at = format!("jobs.{i}.sample");
                    DecodeError::new(e.to_string()).at(&at)
                })?;
            }
        }
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
/// batch runs through [`simulate_cached`], so a `(workload, budget)` is
/// fingerprinted only when this process has not fingerprinted it yet, and
/// emulated to simulate only when one of its jobs misses the store;
/// identical requests are coalesced in flight: duplicates of a canonical
/// key simulate once and report `"deduped"`. Jobs naming unknown workloads get an `"error"` line
/// instead of poisoning the whole batch.
pub fn execute_batch(req: &BatchRequest, service: &SimService, workers: usize) -> Vec<Json> {
    execute(req, service, workers).0
}

/// [`execute_batch`], plus the number of distinct `(workload, budget)`
/// pairs the batch emulated to simulate its misses.
fn execute(req: &BatchRequest, service: &SimService, workers: usize) -> (Vec<Json>, u64) {
    // Response lines always carry keys, so a disabled service is stood in
    // for by a batch-local memo.
    let local;
    let service = if service.enabled() {
        service
    } else {
        local = SimService::in_memory();
        &local
    };

    let valid: Vec<&JobSpec> = req
        .jobs
        .iter()
        .filter(|job| lvp_workloads::by_name(&job.workload).is_some())
        .collect();
    let batch = simulate_cached(
        service,
        &valid,
        |job| job.point(),
        workers,
        &NullPhases,
        &Progress::off(),
    );
    let streamed: HashSet<(&str, u64)> = valid
        .iter()
        .zip(&batch.provenance)
        .filter(|(_, &p)| p == Provenance::Computed)
        .map(|(job, _)| (job.workload.as_str(), job.budget))
        .collect();
    let streamed = streamed.len() as u64;

    // Fan results back out to request order.
    let mut answered = batch
        .keys
        .into_iter()
        .zip(batch.provenance)
        .zip(batch.results);
    let lines = req
        .jobs
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
        .collect();
    (lines, streamed)
}

/// Server configuration (mirrors the `serve` binary's flags).
pub struct ServeConfig {
    pub queue: PathBuf,
    pub workers: usize,
    /// Drain the pending queue, then exit (CI and tests).
    pub once: bool,
    /// Interval between queue scans; socket requests wake the server
    /// sooner.
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
    /// Distinct `(workload, budget)` pairs each batch emulated to simulate,
    /// summed over batches: a warm server emulates none for a batch of
    /// hits.
    pub streamed: u64,
}

/// The one request handler both transports share: parses a batch
/// document, executes it, and counts the batch, its jobs, the pairs it
/// streamed and its error lines into `stats`. `claimed_id`, set for queue
/// batches, is the id the request file's name carries; the document's id
/// must match it, and error lines carry it.
fn answer(
    cfg: &ServeConfig,
    service: &SimService,
    text: &str,
    claimed_id: Option<&str>,
    stats: &mut ServeStats,
) -> Vec<Json> {
    let error = |msg: String| {
        let id = claimed_id.map(|id| ("id", id.to_json()));
        vec![Json::obj(id.into_iter().chain([("error", msg.to_json())]))]
    };
    let lines = match BatchRequest::parse(text) {
        Err(e) => error(e),
        Ok(req) if claimed_id.is_some_and(|id| id != req.id) => {
            error(format!("batch id '{}' does not match filename", req.id))
        }
        Ok(req) => {
            if !cfg.quiet {
                eprintln!("serve: batch {} ({} jobs)", req.id, req.jobs.len());
            }
            stats.jobs += req.jobs.len() as u64;
            let (lines, streamed) = execute(&req, service, cfg.workers);
            stats.streamed += streamed;
            lines
        }
    };
    stats.batches += 1;
    stats.errors += lines.iter().filter(|l| l.get("error").is_some()).count() as u64;
    lines
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
    let lines = answer(cfg, service, &text, Some(id), stats);
    complete(&cfg.queue, id, &lines).map_err(|e| format!("cannot publish {id}: {e}"))
}

/// How long a socket client may take to send its request line, or to
/// take its response, before the connection is dropped.
#[cfg(unix)]
const SOCKET_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The longest socket request line read; a longer one is cut here and
/// fails to parse.
#[cfg(unix)]
const MAX_REQUEST_BYTES: u64 = 16 << 20;

/// A complete socket request: its line, and where its response goes.
struct SocketRequest {
    line: String,
    reply: Box<dyn Write + Send>,
}

/// Reads one request line off a fresh connection. `Ok(None)` is a client
/// that closed without sending anything.
#[cfg(unix)]
fn read_request(stream: std::os::unix::net::UnixStream) -> std::io::Result<Option<SocketRequest>> {
    use std::io::{BufRead, Read};
    stream.set_read_timeout(Some(SOCKET_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_IO_TIMEOUT))?;
    let mut reader = std::io::BufReader::new(stream).take(MAX_REQUEST_BYTES);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    Ok(Some(SocketRequest {
        line,
        reply: Box::new(reader.into_inner().into_inner()),
    }))
}

/// Accepts socket connections until the server is gone, reading each
/// request line on a thread of its own so that only complete requests
/// reach the serving loop; a failed accept or read arrives as an error.
/// The reader threads are detached: each ends when its line is in, or once
/// its client has sent nothing for [`SOCKET_IO_TIMEOUT`].
#[cfg(unix)]
fn accept_requests(
    listener: std::os::unix::net::UnixListener,
    requests: mpsc::Sender<Result<SocketRequest, String>>,
) {
    for conn in listener.incoming() {
        let requests = requests.clone();
        let sent = match conn {
            Ok(conn) => {
                std::thread::spawn(move || {
                    let req = read_request(conn).map_err(|e| format!("socket read failed: {e}"));
                    if let Some(req) = req.transpose() {
                        let _ = requests.send(req);
                    }
                });
                Ok(())
            }
            Err(e) => {
                // Back off: a persistent failure (out of descriptors) would
                // otherwise spin.
                std::thread::sleep(Duration::from_millis(10));
                requests.send(Err(format!("socket accept failed: {e}")))
            }
        };
        if sent.is_err() {
            return;
        }
    }
}

/// Answers one socket request and writes its response lines back.
fn handle_socket_request(
    cfg: &ServeConfig,
    service: &SimService,
    req: SocketRequest,
    stats: &mut ServeStats,
) -> std::io::Result<()> {
    let lines = answer(cfg, service, &req.line, None, stats);
    let mut reply = req.reply;
    for l in &lines {
        reply.write_all(l.compact().as_bytes())?;
        reply.write_all(b"\n")?;
    }
    reply.flush()
}

/// Runs the batch server: drains `queue/new/`, serving each claimed batch
/// through `service`, until interrupted (or immediately after the backlog
/// with [`ServeConfig::once`], answering too the socket requests that have
/// arrived by then). Between queue scans, every `poll_ms`, it waits on the
/// Unix socket's accept thread, when one is configured, so a socket request
/// is answered as soon as its line is in.
pub fn serve(cfg: &ServeConfig, service: &SimService) -> Result<ServeStats, String> {
    queue_init(&cfg.queue).map_err(|e| format!("cannot init queue: {e}"))?;
    // The server keeps one sender, so with no socket the wait below is a
    // plain `poll_ms` sleep.
    let (sender, requests) = mpsc::channel();
    #[cfg(unix)]
    if let Some(path) = &cfg.socket {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)
            .map_err(|e| format!("cannot bind {}: {e}", path.display()))?;
        let sender = sender.clone();
        // Detached: it blocks in `accept` for the life of the process.
        std::thread::spawn(move || accept_requests(listener, sender));
    }
    #[cfg(not(unix))]
    if cfg.socket.is_some() {
        return Err("--socket requires a Unix platform".to_string());
    }

    let mut stats = ServeStats::default();
    let poll = Duration::from_millis(cfg.poll_ms.max(1));
    let handle = |req: Result<SocketRequest, String>, stats: &mut ServeStats| {
        let result = req.and_then(|req| {
            handle_socket_request(cfg, service, req, stats)
                .map_err(|e| format!("socket connection failed: {e}"))
        });
        if let Err(e) = result {
            eprintln!("serve: {e}");
            stats.errors += 1;
        }
    };
    loop {
        while let Some((id, path)) = claim_next(&cfg.queue) {
            if let Err(e) = handle_claimed(cfg, service, &id, &path, &mut stats) {
                eprintln!("serve: {e}");
                stats.errors += 1;
            }
        }
        while let Ok(req) = requests.try_recv() {
            handle(req, &mut stats);
        }
        if cfg.once {
            return Ok(stats);
        }
        if let Ok(req) = requests.recv_timeout(poll) {
            handle(req, &mut stats);
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
        for b in job.to_json().canonical().bytes() {
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
        let (index, source, outcome): (usize, String, SchemeOutcome) = Fields::of(line)
            .and_then(|f| Ok((f.req("index")?, f.req("source")?, f.req("outcome")?)))
            .map_err(|e| format!("bad response line: {e}"))?;
        if index >= jobs.len() || outcomes[index].is_some() {
            return Err(format!("response line has bad index {index}"));
        }
        let prov = Provenance::from_name(&source)
            .ok_or_else(|| format!("unknown provenance '{source}'"))?;
        *sources.entry(prov.name()).or_insert(0) += 1;
        outcomes[index] = Some(outcome);
    }
    let results = jobs
        .into_iter()
        .zip(outcomes)
        .map(|(job, outcome)| {
            JobResult::new(job, outcome.expect("every index filled exactly once"))
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
    use crate::runner::{run_matrix, ConfigVariant};
    use dlvp::SchemeKind;
    use lvp_json::FromJson;
    use lvp_uarch::SampleSpec;
    use std::io::{BufRead, Read};
    use std::time::Instant;

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
            let back = JobSpec::from_json(&job.to_json()).expect("round trip");
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
            assert_eq!(JobSpec::from_json(&job.to_json()).expect("round trip"), job);
        }
        assert!(JobSpec::from_json(&Json::obj([("workload", Json::Str("x".into()))])).is_err());
    }

    #[test]
    fn degenerate_sample_specs_fail_the_batch_before_anything_runs() {
        let root = temp_queue("degenerate");
        let store = root.join("store");
        let service = SimService::open(&store).expect("store opens");
        let mut ids = Vec::new();
        // The last spec is valid, but the 4k budget ends inside its
        // fast-forward, so it has no detail window.
        let specs = [
            ((0, 0, 5, 1), "degenerate sample spec"),
            ((0, 0, 0, 0), "degenerate sample spec"),
            ((20_000, 100, 500, 1_000), "before the first detail window"),
        ];
        for (i, ((ff, warmup, detail, period), why)) in specs.into_iter().enumerate() {
            let mut spec = tiny_spec();
            spec.sample = Some(SampleSpec {
                ff,
                warmup,
                detail,
                period,
            });
            let req = BatchRequest {
                id: format!("degenerate-{i}"),
                jobs: spec.expand(),
            };
            submit(&root, &req).expect("submit");
            ids.push((req.id, why));
        }
        let cfg = ServeConfig {
            queue: root.clone(),
            workers: 1,
            once: true,
            poll_ms: 5,
            socket: None,
            quiet: true,
        };
        let stats = serve(&cfg, &service).expect("serve runs");
        assert_eq!((stats.batches, stats.errors), (3, 3));
        for (id, why) in ids {
            let text = std::fs::read_to_string(root.join("done").join(format!("{id}.jsonl")))
                .expect("response written");
            let line = Json::parse(text.trim()).expect("one JSON line");
            let err = line
                .get("error")
                .and_then(Json::as_str)
                .expect("error line");
            assert!(err.contains("jobs.0.sample"), "{err}");
            assert!(err.contains(why), "{err}");
        }
        assert_eq!(service.counters(), lvp_store::StoreCounters::default());
        let stored = lvp_store::Store::open(&store)
            .expect("store")
            .keys()
            .expect("keys");
        assert!(stored.is_empty(), "nothing may be stored: {stored:?}");
        let _ = std::fs::remove_dir_all(&root);
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

    /// Sends `req` over a Unix socket to one `read_request` and
    /// `handle_socket_request` call and returns its response lines and the
    /// stats it counted.
    #[cfg(unix)]
    fn socket_round_trip(tag: &str, req: &BatchRequest) -> (Vec<Json>, ServeStats) {
        let root = temp_queue(tag);
        let sock = root.join("serve.sock");
        queue_init(&root).expect("init");
        let listener = std::os::unix::net::UnixListener::bind(&sock).expect("bind");
        let cfg = ServeConfig {
            queue: root.clone(),
            workers: 2,
            once: true,
            poll_ms: 5,
            socket: Some(sock.clone()),
            quiet: true,
        };
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            let mut stats = ServeStats::default();
            let req = read_request(conn).expect("read").expect("a request line");
            handle_socket_request(&cfg, &SimService::in_memory(), req, &mut stats).expect("handle");
            stats
        });
        let mut conn = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
        conn.write_all((req.to_json().compact() + "\n").as_bytes())
            .expect("send");
        let reader = std::io::BufReader::new(conn);
        let lines = reader
            .lines()
            .map(|l| Json::parse(&l.expect("line")).expect("parse"))
            .collect();
        let stats = server.join().expect("server thread");
        std::fs::remove_dir_all(&root).expect("cleanup");
        (lines, stats)
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trips_a_batch() {
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
        let (lines, _) = socket_round_trip("sock", &req);
        assert_eq!(lines.len(), 1);
        assert_eq!(
            lines[0].get("source").and_then(Json::as_str),
            Some("computed")
        );
        assert!(lines[0].get("outcome").is_some());
    }

    #[cfg(unix)]
    #[test]
    fn socket_batches_count_jobs_and_error_lines_like_queue_batches() {
        let mut jobs = tiny_spec().expand();
        jobs.truncate(1);
        jobs.push(JobSpec {
            workload: "nonesuch".to_string(),
            ..jobs[0].clone()
        });
        let req = BatchRequest {
            id: "b-sock-mixed".into(),
            jobs,
        };
        let (lines, stats) = socket_round_trip("sock-mixed", &req);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].get("outcome").is_some());
        assert!(lines[1].get("error").is_some());
        assert_eq!(
            stats,
            ServeStats {
                batches: 1,
                jobs: 2,
                errors: 1,
                streamed: 1,
            }
        );
    }

    /// Starts a server with a 60 s poll on a socket in a fresh queue, left
    /// running, and returns the socket once it accepts connections.
    #[cfg(unix)]
    fn start_socket_server(tag: &str) -> PathBuf {
        let root = temp_queue(tag);
        let sock = root.join("serve.sock");
        let cfg = ServeConfig {
            queue: root,
            workers: 1,
            once: false,
            poll_ms: 60_000,
            socket: Some(sock.clone()),
            quiet: true,
        };
        std::thread::spawn(move || serve(&cfg, &SimService::in_memory()));
        let deadline = Instant::now() + Duration::from_secs(10);
        while std::os::unix::net::UnixStream::connect(&sock).is_err() {
            assert!(
                Instant::now() < deadline,
                "server never bound {}",
                sock.display()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        sock
    }

    /// One client round trip: a request line out, response lines until EOF.
    #[cfg(unix)]
    fn socket_request(sock: &Path, req: &BatchRequest) -> Vec<Json> {
        let mut conn = std::os::unix::net::UnixStream::connect(sock).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        conn.write_all((req.to_json().compact() + "\n").as_bytes())
            .expect("send");
        let mut text = String::new();
        conn.read_to_string(&mut text).expect("answered");
        text.lines()
            .map(|l| Json::parse(l).expect("parse"))
            .collect()
    }

    #[cfg(unix)]
    fn one_job(id: &str) -> BatchRequest {
        let mut jobs = tiny_spec().expand();
        jobs.truncate(1);
        jobs[0].budget = 1_000;
        BatchRequest {
            id: id.into(),
            jobs,
        }
    }

    #[cfg(unix)]
    #[test]
    fn socket_batch_wakes_a_server_polling_every_minute() {
        let sock = start_socket_server("wake");
        let start = Instant::now();
        let lines = socket_request(&sock, &one_job("b-wake"));
        let elapsed = start.elapsed();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].get("outcome").is_some(), "{:?}", lines[0]);
        assert!(
            elapsed < Duration::from_secs(1),
            "answered after {elapsed:?}"
        );
    }

    #[cfg(unix)]
    #[test]
    fn silent_socket_client_does_not_stall_the_next_one() {
        let sock = start_socket_server("silent");
        // Connected first, so the server accepts it first.
        let _silent = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
        let start = Instant::now();
        let lines = socket_request(&sock, &one_job("b-after-silent"));
        let elapsed = start.elapsed();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].get("outcome").is_some(), "{:?}", lines[0]);
        assert!(
            elapsed < Duration::from_secs(1),
            "answered after {elapsed:?}"
        );
    }

    #[cfg(unix)]
    #[test]
    fn socket_request_lines_are_bounded() {
        let (mut client, server) = std::os::unix::net::UnixStream::pair().expect("pair");
        let writer = std::thread::spawn(move || {
            let chunk = vec![b'x'; 1 << 20];
            for _ in 0..17 {
                if client.write_all(&chunk).is_err() {
                    break;
                }
            }
        });
        let req = read_request(server).expect("read").expect("a line");
        assert_eq!(req.line.len() as u64, MAX_REQUEST_BYTES);
        drop(req);
        writer.join().expect("writer");
    }

    #[test]
    fn repeated_batch_is_all_hits_and_emulates_nothing() {
        let root = temp_queue("streamed");
        let mut spec = tiny_spec();
        spec.budget = 1_700;
        let mut jobs = spec.expand();
        jobs.push(JobSpec {
            budget: 1_800,
            ..jobs[0].clone()
        });
        let distinct = 3; // aifirf and nat at 1_700, aifirf at 1_800
        for id in ["streamed-1", "streamed-2"] {
            let req = BatchRequest {
                id: id.into(),
                jobs: jobs.clone(),
            };
            submit(&root, &req).expect("submit");
        }
        let cfg = ServeConfig {
            queue: root.clone(),
            workers: 2,
            once: true,
            poll_ms: 5,
            socket: None,
            quiet: true,
        };
        let stats = serve(&cfg, &SimService::in_memory()).expect("serve");
        assert_eq!((stats.batches, stats.errors), (2, 0));
        assert_eq!(
            stats.streamed, distinct,
            "the cold batch streams each pair once"
        );
        let read = |id: &str| -> Vec<Json> {
            std::fs::read_to_string(root.join("done").join(format!("{id}.jsonl")))
                .expect("response written")
                .lines()
                .map(|l| Json::parse(l).expect("parse"))
                .collect()
        };
        let (cold, warm) = (read("streamed-1"), read("streamed-2"));
        assert_eq!(warm.len(), jobs.len());
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.get("source").and_then(Json::as_str), Some("computed"));
            assert_eq!(w.get("source").and_then(Json::as_str), Some("store"));
            for field in ["key", "outcome"] {
                let bytes = |l: &Json| l.get(field).map(Json::compact);
                assert_eq!(bytes(w), bytes(c), "{field}");
            }
        }
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn execute_batch_traces_per_budget_keeps_error_order_and_answers_empty_batches() {
        let job = |workload: &str, budget: u64| JobSpec {
            workload: workload.to_string(),
            scheme: SchemeKind::Dlvp,
            variant: ConfigVariant::Default,
            budget,
            sample: None,
        };
        let req = BatchRequest {
            id: "b-mixed".into(),
            jobs: vec![
                job("aifirf", 3_000),
                job("nonesuch", 3_000),
                job("aifirf", 5_000),
            ],
        };
        let lines = execute_batch(&req, &SimService::disabled(), 2);
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(line.get("index").and_then(Json::as_f64), Some(i as f64));
        }
        let err = lines[1].get("error").and_then(Json::as_str).expect("error");
        assert_eq!(err, "unknown workload 'nonesuch'");
        for i in [0, 2] {
            let j = &req.jobs[i];
            let trace = lvp_workloads::by_name(&j.workload)
                .expect("workload")
                .trace(j.budget);
            let local = crate::experiments::run_scheme(&trace, j.scheme, &j.config());
            assert_eq!(lines[i].get("outcome"), Some(&local.to_json()), "job {i}");
        }
        assert_ne!(lines[0].get("key"), lines[2].get("key"));

        let empty = BatchRequest {
            id: "b-empty".into(),
            jobs: Vec::new(),
        };
        assert!(execute_batch(&empty, &SimService::in_memory(), 2).is_empty());
    }
}
