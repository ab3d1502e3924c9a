//! `sampled_long`: the `--sample` shape at ten times the paper budget.
//!
//! Round = `run_matrix_with` over ten workloads × {baseline, DLVP} at 2M
//! instructions with SMARTS-style sampling, two workers. The emulator
//! builds 2M-record traces and holds ten of them, so this is the workload
//! where trace residency and sampling accuracy are on the line; the detail
//! windows use the core differently (a fresh core per window, warm-only
//! predictor training).

use crate::harness::{closed_loop, e2e_metrics, peak_rss_mb, repeat_setup, warm_up, Ctx, WORKERS};
use crate::layers::{overhead_metric, replay, span_metrics, traced, write_spans};
use crate::report::{Metric, Tally, WorkloadResult};
use crate::stats::median;
use lvp_bench::{run_matrix_with, ConfigVariant, MatrixSpec, Progress, SchemeKind};
use lvp_obs::NullPhases;
use lvp_uarch::SampleSpec;
use std::time::Instant;

pub const WORKLOADS: [&str; 10] = [
    "perlbmk",
    "gzip",
    "mcf",
    "bzip2",
    "libquantum",
    "hmmer",
    "h264ref",
    "aifirf",
    "nat",
    "pdfjs",
];
pub const BUDGET: u64 = 2_000_000;
/// `--sample 100000:20000:20000:200000`.
pub const SAMPLE: SampleSpec = SampleSpec {
    ff: 100_000,
    warmup: 20_000,
    detail: 20_000,
    period: 200_000,
};

/// The matrix, sampled or (for pinning the reference IPCs) in full detail.
pub fn matrix(sample: Option<SampleSpec>) -> MatrixSpec {
    MatrixSpec {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        schemes: vec![SchemeKind::Baseline, SchemeKind::Dlvp],
        variants: vec![ConfigVariant::Default],
        budget: BUDGET,
        sample,
    }
}

pub fn run(ctx: &Ctx) -> Result<WorkloadResult, String> {
    // Set-up: validate the matrix, then warm up on its workloads.
    let (setup_s, mut per_rep) = repeat_setup(if ctx.quick { 1 } else { 5 }, |_| {
        let spec = matrix(Some(SAMPLE));
        SAMPLE.validate().map_err(|e| e.to_string())?;
        warm_up(&WORKLOADS)?;
        Ok(spec)
    })?;
    let spec = per_rep.pop().expect("at least one set-up");
    let instrs = spec.expand().len() as u64 * BUDGET;
    let max = ctx.quick.then_some(1);
    let mut tally = Tally::default();
    let mut errors = (f64::NAN, f64::NAN);

    let untraced = closed_loop(ctx.seconds, max, |_| {
        let results = run_matrix_with(&spec, WORKERS, &NullPhases, &Progress::off());
        errors = ctx.pins.check_sampled(&results.jobs, &mut tally);
        Ok(instrs)
    })?;
    let e2e = e2e_metrics(&setup_s, &untraced, peak_rss_mb(None)?);
    // Deterministic, and pinned through the job digests: reported beside the
    // timings, never bounded by a spread.
    let accuracy = vec![
        Metric::new("sampled_ipc_err_pct", errors.0, "%", spec.expand().len()),
        Metric::new("sampled_speedup_err_pct", errors.1, "%", WORKLOADS.len()),
    ];
    if !ctx.traced {
        return Ok(ctx.result("sampled_long", tally, e2e, accuracy));
    }

    let start = Instant::now();
    let mut reqs = Vec::new();
    let traced_loop = closed_loop(ctx.seconds, max, |i| {
        let (results, req) = traced(format!("r{i}"), WORKERS, start, |rec| {
            run_matrix_with(&spec, WORKERS, rec, &Progress::off())
        });
        ctx.pins.check_sampled(&results.jobs, &mut tally);
        reqs.push(req);
        Ok(instrs)
    })?;
    write_spans(&ctx.out.join("spans.json"), &reqs)?;
    let mut layers = span_metrics(&reqs, BUDGET);
    layers.extend(replay(&WORKLOADS, BUDGET, &ctx.out.join("layer-store"))?);
    layers.push(overhead_metric(
        median(&untraced.ms),
        median(&traced_loop.ms),
        traced_loop.ms.len(),
    ));
    Ok(ctx.result("sampled_long", tally, layers, [e2e, accuracy].concat()))
}
