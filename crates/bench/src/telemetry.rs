//! Host-side run telemetry: structured manifests, pool-occupancy
//! accounting, and live progress reporting for the batch CLIs.
//!
//! Every tool run can emit a **telemetry manifest** (`--telemetry <path>`):
//! which tool ran, a canonical hash of its configuration, the seeds it
//! drew, per-job wall-clock and `sim_cycles_per_sec`, the hierarchical
//! host-phase tree recorded by [`PhaseRecorder`], and worker-pool occupancy
//! — plus a Chrome-trace export of the same phases (`--host-trace <path>`,
//! one lane per worker) for `chrome://tracing`.
//!
//! Telemetry is observation only. The deterministic artifacts (golden
//! matrices, figures, analysis reports, fuzz corpora) must stay
//! byte-identical with telemetry on or off — manifests go to their own
//! files and carry the non-determinism (wall-clock) explicitly.

use lvp_json::{json_struct, DecodeError, Fields, FromJson, Json};
use lvp_obs::{sim_cycles_per_sec, PhaseRecorder, PhaseSpan};
use lvp_store::StoreCounters;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Manifest schema version, bumped on breaking layout changes.
pub const MANIFEST_VERSION: u64 = 1;

/// Span-name prefix that marks a unit of accounted work; spans carrying it
/// become [`JobRecord`]s in the manifest.
pub const JOB_PREFIX: &str = "job:";

/// Span-name prefix of a stream: the simulations that share one emulator
/// pass, charged with their summed work and their count. Each becomes one
/// [`JobRecord`], labelled with its full span name.
pub const STREAM_PREFIX: &str = "stream:";

/// Canonical configuration fingerprint: FNV-1a over the tool name and the
/// compact form of its configuration document. Depends only on *what* runs
/// — never on `--jobs`, the schedule, or the host — so the same spec hashes
/// identically everywhere.
pub fn config_hash(tool: &str, config: &Json) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    };
    eat(tool.as_bytes());
    eat(&[0]);
    eat(config.compact().as_bytes());
    format!("{h:016x}")
}

/// One accounted work item (a `job:`- or `stream:`-prefixed phase span).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job identity, e.g. `perlbmk/default/DLVP`, or a stream's span name,
    /// e.g. `stream:perlbmk`.
    pub label: String,
    /// Worker that ran it (lane − 1; coordinator work reports worker 0).
    pub worker: u64,
    pub wall_ns: u64,
    pub sim_cycles: u64,
    pub instructions: u64,
    pub sim_cycles_per_sec: f64,
}

json_struct!(JobRecord {
    label,
    worker,
    wall_ns,
    sim_cycles,
    instructions,
    sim_cycles_per_sec,
});

/// Worker-pool occupancy: how much of `workers × wall` was spent inside
/// spans, per worker and in aggregate. Idle time is the straggler signal
/// the host trace makes visible lane by lane.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolStats {
    pub workers: u64,
    pub wall_ns: u64,
    /// Busy nanoseconds per worker (top-level spans on that worker's lane).
    pub busy_ns: Vec<u64>,
    pub idle_ns: u64,
    /// `Σ busy / (workers × wall)`, in `[0, 1]`.
    pub occupancy: f64,
}

impl PoolStats {
    /// Derives occupancy from a recorded span forest: worker `i` is lane
    /// `i + 1`; only top-level (depth 0) spans count, so nesting never
    /// double-bills a lane.
    pub fn from_spans(spans: &[PhaseSpan], workers: usize, wall_ns: u64) -> PoolStats {
        let mut busy_ns = vec![0u64; workers];
        for s in spans.iter().filter(|s| s.depth == 0 && s.lane > 0) {
            if let Some(b) = busy_ns.get_mut(s.lane as usize - 1) {
                *b += s.dur_ns;
            }
        }
        let busy_total: u64 = busy_ns.iter().sum();
        let budget = wall_ns.saturating_mul(workers as u64);
        PoolStats {
            workers: workers as u64,
            wall_ns,
            idle_ns: budget.saturating_sub(busy_total),
            occupancy: if budget == 0 {
                0.0
            } else {
                busy_total as f64 / budget as f64
            },
            busy_ns,
        }
    }
}

json_struct!(PoolStats {
    workers,
    wall_ns,
    busy_ns,
    idle_ns,
    occupancy,
});

/// The structured telemetry manifest a tool run emits with `--telemetry`.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub version: u64,
    /// Tool that ran: `runner`, `figs`, `analyze`, `fuzz`, or `bench`.
    pub tool: String,
    /// [`config_hash`] of the run's configuration document.
    pub config_hash: String,
    /// Per-workload instruction budget (or the tool's equivalent knob).
    pub budget: u64,
    /// Worker threads the pool ran with.
    pub workers: u64,
    /// Deterministic per-job seeds, in canonical job order.
    pub seeds: Vec<u64>,
    /// Total wall-clock of the run, nanoseconds.
    pub wall_ns: u64,
    pub jobs: u64,
    pub sim_cycles: u64,
    pub instructions: u64,
    /// Aggregate simulated-cycle throughput over the whole run wall-clock.
    pub sim_cycles_per_sec: f64,
    /// Result-store counters, present only when the run used a
    /// [`lvp_store::SimService`].
    pub store: Option<StoreCounters>,
    pub pool: PoolStats,
    pub per_job: Vec<JobRecord>,
    /// The full hierarchical phase tree, exactly as recorded.
    pub phases: Vec<PhaseSpan>,
}

impl Manifest {
    /// Assembles a manifest from a finished [`PhaseRecorder`]. Per-job
    /// records and work totals come from the `job:`- and `stream:`-prefixed
    /// spans, and `jobs` sums the simulations each of them was charged
    /// with (a stream runs several); pool occupancy comes from the worker
    /// lanes.
    pub fn build(
        tool: &str,
        config: &Json,
        budget: u64,
        seeds: Vec<u64>,
        workers: usize,
        rec: &PhaseRecorder,
        store: Option<StoreCounters>,
    ) -> Manifest {
        let phases = rec.spans();
        let wall_ns = rec.total_ns();
        let work = || {
            phases
                .iter()
                .filter_map(|s| match s.name.strip_prefix(JOB_PREFIX) {
                    Some(job) => Some((job, s)),
                    None if s.name.starts_with(STREAM_PREFIX) => Some((s.name.as_str(), s)),
                    None => None,
                })
        };
        let per_job: Vec<JobRecord> = work()
            .map(|(label, s)| JobRecord {
                label: label.to_string(),
                worker: (s.lane.max(1) - 1) as u64,
                wall_ns: s.dur_ns,
                sim_cycles: s.sim_cycles,
                instructions: s.instructions,
                sim_cycles_per_sec: sim_cycles_per_sec(s.sim_cycles, s.dur_ns),
            })
            .collect();
        let sim_cycles: u64 = per_job.iter().map(|j| j.sim_cycles).sum();
        let instructions: u64 = per_job.iter().map(|j| j.instructions).sum();
        Manifest {
            version: MANIFEST_VERSION,
            tool: tool.to_string(),
            config_hash: config_hash(tool, config),
            budget,
            workers: workers as u64,
            seeds,
            wall_ns,
            jobs: work().map(|(_, s)| s.jobs).sum(),
            sim_cycles,
            instructions,
            sim_cycles_per_sec: sim_cycles_per_sec(sim_cycles, wall_ns),
            store,
            pool: PoolStats::from_spans(&phases, workers, wall_ns),
            per_job,
            phases,
        }
    }

    /// Decodes a manifest document, rejecting other schema versions
    /// before reading the rest. Used by the round-trip tests and the CI
    /// telemetry-smoke validator.
    pub fn parse(j: &Json) -> Result<Manifest, DecodeError> {
        let version: u64 = Fields::of(j)?.req("version")?;
        if version != MANIFEST_VERSION {
            return Err(DecodeError::new(format!(
                "unsupported manifest version {version} (expected {MANIFEST_VERSION})"
            ))
            .at("version"));
        }
        Manifest::from_json(j)
    }
}

// The `--telemetry` file body. The `store` key appears only for
// store-enabled runs, so store-off manifests keep their exact pre-store
// bytes and old manifests still parse.
json_struct!(Manifest {
    version,
    tool,
    config_hash,
    budget,
    workers,
    seeds,
    wall_ns,
    jobs,
    sim_cycles,
    instructions,
    sim_cycles_per_sec,
    ?store,
    pool,
    per_job,
    phases,
});

/// Formats a cycles-per-second rate as a compact human string (`2.31M`).
pub fn fmt_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2}G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

/// Live progress for the batch pools: jobs-done/total, elapsed, ETA, and
/// aggregate simulated cycles per second, printed to **stderr** (never
/// stdout — artifacts and stdout stay byte-identical with progress on or
/// off). Prints at most ~once a second plus a final line; disabled
/// entirely under `--quiet` or [`Progress::off`].
pub struct Progress {
    label: &'static str,
    total: usize,
    enabled: bool,
    t0: Instant,
    done: AtomicUsize,
    sim_cycles: AtomicU64,
    last_print_ms: AtomicU64,
}

impl Progress {
    /// Progress over `total` jobs, printing as `label: ...` when `enabled`.
    pub fn new(label: &'static str, total: usize, enabled: bool) -> Progress {
        Progress {
            label,
            total,
            enabled,
            t0: Instant::now(),
            done: AtomicUsize::new(0),
            sim_cycles: AtomicU64::new(0),
            last_print_ms: AtomicU64::new(0),
        }
    }

    /// A disabled progress meter (still counts, never prints).
    pub fn off() -> Progress {
        Progress::new("", 0, false)
    }

    /// Jobs completed so far.
    pub fn done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Records one finished job contributing `sim_cycles` simulated cycles;
    /// prints a throttled progress line when enabled.
    pub fn tick(&self, sim_cycles: u64) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let cycles = self.sim_cycles.fetch_add(sim_cycles, Ordering::Relaxed) + sim_cycles;
        if !self.enabled {
            return;
        }
        let elapsed_ms = self.t0.elapsed().as_millis() as u64;
        let last = self.last_print_ms.load(Ordering::Relaxed);
        let is_final = done >= self.total;
        if !is_final
            && (elapsed_ms < last + 1_000
                || self
                    .last_print_ms
                    .compare_exchange(last, elapsed_ms, Ordering::Relaxed, Ordering::Relaxed)
                    .is_err())
        {
            return;
        }
        let secs = (elapsed_ms as f64 / 1e3).max(1e-9);
        let eta = if done > 0 && self.total > done {
            secs / done as f64 * (self.total - done) as f64
        } else {
            0.0
        };
        eprintln!(
            "{}: {done}/{} jobs ({:.0}%), {secs:.1}s elapsed, ETA {eta:.1}s, {} sim cycles/s",
            self.label,
            self.total,
            100.0 * done as f64 / self.total.max(1) as f64,
            fmt_rate(cycles as f64 / secs),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_json::ToJson;
    use lvp_obs::PhaseSink;

    #[test]
    fn config_hash_ignores_nothing_and_changes_with_input() {
        let a = Json::obj([("budget", 1000u64.to_json())]);
        let b = Json::obj([("budget", 1001u64.to_json())]);
        assert_eq!(config_hash("runner", &a), config_hash("runner", &a));
        assert_ne!(config_hash("runner", &a), config_hash("runner", &b));
        assert_ne!(config_hash("runner", &a), config_hash("figs", &a));
        assert_eq!(config_hash("runner", &a).len(), 16);
    }

    #[test]
    fn manifest_builds_from_recorder_and_round_trips() {
        let rec = PhaseRecorder::new();
        {
            let _sim = rec.span(0, "simulate");
            let mut j1 = rec.span(1, "job:a/default/DLVP");
            j1.charge(1_000, 500, 1);
            j1.finish();
            let mut j2 = rec.span(2, "job:b/default/DLVP");
            j2.charge(3_000, 900, 1);
            j2.finish();
        }
        let cfg = Json::obj([("budget", 123u64.to_json())]);
        let m = Manifest::build("runner", &cfg, 123, vec![7, 9], 2, &rec, None);
        assert_eq!(m.jobs, 2);
        assert_eq!(m.sim_cycles, 4_000);
        assert_eq!(m.instructions, 1_400);
        assert_eq!(m.pool.workers, 2);
        assert_eq!(m.pool.busy_ns.len(), 2);
        assert!(m.pool.occupancy >= 0.0 && m.pool.occupancy <= 1.0);
        assert_eq!(m.per_job[0].label, "a/default/DLVP");
        assert_eq!(m.per_job[1].worker, 1);

        let text = m.to_json().pretty();
        let parsed = Manifest::parse(&Json::parse(&text).expect("parses")).expect("valid");
        assert_eq!(parsed, m);
        assert_eq!(parsed.to_json().pretty(), text, "byte-stable round-trip");
    }

    #[test]
    fn manifest_store_counters_are_optional_and_round_trip() {
        let rec = PhaseRecorder::new();
        let cfg = Json::obj([("budget", 1u64.to_json())]);
        let off = Manifest::build("figs", &cfg, 1, Vec::new(), 1, &rec, None);
        assert!(
            !off.to_json().pretty().contains("\"store\""),
            "store-disabled manifests must not grow a store key"
        );
        let counters = StoreCounters {
            hits: 4,
            misses: 2,
            writes: 2,
            deduped: 1,
        };
        let on = Manifest::build("figs", &cfg, 1, Vec::new(), 1, &rec, Some(counters));
        let text = on.to_json().pretty();
        assert!(text.contains("\"store\""));
        let parsed = Manifest::parse(&Json::parse(&text).expect("parses")).expect("valid");
        assert_eq!(parsed.store, Some(counters));
        assert_eq!(parsed.to_json().pretty(), text, "byte-stable round-trip");
    }

    #[test]
    fn manifest_parse_rejects_bad_versions_and_shapes() {
        assert!(Manifest::parse(&Json::obj([("version", 99u64.to_json())])).is_err());
        assert!(Manifest::parse(&Json::Null).is_err());
    }

    #[test]
    fn pool_stats_counts_only_top_level_worker_spans() {
        let mk = |lane, depth, dur| PhaseSpan {
            name: "x".into(),
            lane,
            depth,
            start_ns: 0,
            dur_ns: dur,
            sim_cycles: 0,
            instructions: 0,
            jobs: 0,
        };
        let spans = vec![mk(0, 0, 100), mk(1, 0, 60), mk(1, 1, 50), mk(2, 0, 40)];
        let pool = PoolStats::from_spans(&spans, 2, 100);
        assert_eq!(pool.busy_ns, vec![60, 40]);
        assert_eq!(pool.idle_ns, 100);
        assert!((pool.occupancy - 0.5).abs() < 1e-12);
    }

    #[test]
    fn progress_counts_without_printing_when_disabled() {
        let p = Progress::off();
        for _ in 0..5 {
            p.tick(10);
        }
        assert_eq!(p.done(), 5);
    }

    #[test]
    fn rates_format_compactly() {
        assert_eq!(fmt_rate(2_310_000.0), "2.31M");
        assert_eq!(fmt_rate(1_500.0), "1.5k");
        assert_eq!(fmt_rate(12.0), "12");
        assert_eq!(fmt_rate(3.2e9), "3.20G");
    }
}
