//! What every workload shares: the run context, the closed timing loop,
//! repeated set-up, memory high-water marks and the end-to-end metrics.

use crate::pins::Pins;
use crate::report::{Metric, Tally, WorkloadResult};
use crate::stats::{median, percentile, tail_percentile};
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads every workload uses: the benchmark is sized for a
/// two-core machine and its load comes from at most two threads.
pub const WORKERS: usize = 2;

/// One workload run's settings.
pub struct Ctx {
    pub seed: u64,
    /// Timed phase length; the loop always completes at least one batch.
    pub seconds: f64,
    /// Smoke mode: one round, or 20 served batches, whatever the seconds.
    pub quick: bool,
    pub traced: bool,
    /// This workload's scratch directory under `benchmark/out/`.
    pub out: PathBuf,
    /// The `serve` binary built from this checkout.
    pub serve_bin: PathBuf,
    pub pins: Pins,
}

impl Ctx {
    /// The run's result from its checks and metrics.
    pub fn result(
        &self,
        workload: &str,
        tally: Tally,
        metrics: Vec<Metric>,
        extra: Vec<Metric>,
    ) -> WorkloadResult {
        WorkloadResult {
            workload: workload.to_string(),
            seed: self.seed,
            traced: self.traced,
            attempted: tally.attempted,
            failed: tally.failed,
            notes: tally.notes,
            metrics,
            extra,
        }
    }
}

/// A closed timing loop's record: one latency per batch, and the simulated
/// instructions the completed batches requested.
pub struct Loop {
    pub ms: Vec<f64>,
    pub instrs: u64,
    pub wall_s: f64,
}

/// Runs `batch(i)` back to back until `seconds` have passed (at least once,
/// at most `max` times). `batch` returns the instructions it requested.
pub fn closed_loop(
    seconds: f64,
    max: Option<usize>,
    mut batch: impl FnMut(usize) -> Result<u64, String>,
) -> Result<Loop, String> {
    let start = Instant::now();
    let mut lp = Loop {
        ms: Vec::new(),
        instrs: 0,
        wall_s: 0.0,
    };
    loop {
        let t = Instant::now();
        lp.instrs += batch(lp.ms.len())?;
        lp.ms.push(t.elapsed().as_secs_f64() * 1e3);
        if start.elapsed().as_secs_f64() >= seconds || Some(lp.ms.len()) == max {
            break;
        }
    }
    lp.wall_s = start.elapsed().as_secs_f64();
    Ok(lp)
}

/// Runs a set-up `reps` times and returns each one's seconds and result.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(Vec<f64>, Vec<T>), String> {
    let mut secs = Vec::with_capacity(reps);
    let mut outs = Vec::with_capacity(reps);
    for k in 0..reps {
        let t = Instant::now();
        outs.push(setup(k)?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((secs, outs))
}

/// Instructions of the warm-up simulation a compute workload's set-up runs.
const WARM_UP_INSTRS: u64 = 10_000;

/// The set-up of a compute workload: assemble every named workload's
/// program, then trace the first briefly and simulate it under the baseline
/// and DLVP, so one-time initialisation is paid (and timed) here.
pub fn warm_up(names: &[&str]) -> Result<(), String> {
    let workloads = names
        .iter()
        .map(|n| lvp_workloads::by_name(n).ok_or_else(|| format!("unknown workload '{n}'")))
        .collect::<Result<Vec<_>, _>>()?;
    for w in &workloads {
        std::hint::black_box(w.program());
    }
    let trace = workloads
        .first()
        .ok_or("no workloads to warm up")?
        .trace(WARM_UP_INSTRS);
    let cfg = lvp_bench::ConfigVariant::Default.config();
    for scheme in [lvp_bench::SchemeKind::Baseline, lvp_bench::SchemeKind::Dlvp] {
        std::hint::black_box(lvp_bench::run_scheme(&trace, scheme, &cfg));
    }
    Ok(())
}

/// `VmHWM` of a process (this one when `pid` is `None`), in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

/// The end-to-end metrics of an untraced run.
pub fn e2e_metrics(setup_s: &[f64], lp: &Loop, rss_mb: f64) -> Vec<Metric> {
    let n = lp.ms.len();
    vec![
        Metric::new("setup_s", median(setup_s), "s", setup_s.len()),
        Metric::new(
            "minstr_per_s",
            lp.instrs as f64 / lp.wall_s / 1e6,
            "Minstr/s",
            n,
        ),
        Metric::new("batch_ms_p50", median(&lp.ms), "ms", n),
        Metric::new("batch_ms_p95", percentile(&lp.ms, 95.0), "ms", n),
        Metric::new("peak_rss_mb", rss_mb, "MB", 1),
    ]
}

/// Notes whether the batch count supports quoting p95 as the tail (at
/// least ten samples beyond it).
pub fn tail_note(n: usize) -> Option<String> {
    match tail_percentile(n) {
        Some(p) if p >= 95.0 => None,
        Some(p) => Some(format!(
            "note: {n} batches leave fewer than 10 samples beyond p95; the highest supported tail is p{p}"
        )),
        None => Some(format!(
            "note: {n} batches leave fewer than 10 samples beyond any tail percentile"
        )),
    }
}
