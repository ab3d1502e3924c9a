//! `figs_all`: every figure and table spec rendered from cycle-level runs —
//! the repository's north-star job, `figs --all`, in process.
//!
//! Round = `run_specs_with` over all specs at the paper budget, two workers,
//! result store disabled. The emulator and the cycle-level core do almost
//! all of the work and the store, JSON and serve layers none, so a serve or
//! store optimisation must show no change here.

use crate::harness::{closed_loop, e2e_metrics, peak_rss_mb, repeat_setup, warm_up, Ctx, WORKERS};
use crate::layers::{overhead_metric, replay, span_metrics, traced, write_spans};
use crate::report::{Tally, WorkloadResult};
use crate::stats::median;
use lvp_bench::specs::SPECS;
use lvp_bench::{run_specs_with, ExperimentSpec, Progress};
use lvp_obs::NullPhases;
use std::collections::HashSet;
use std::time::Instant;

/// Per-workload instruction budget of every committed `results/*.txt`.
pub const BUDGET: u64 = lvp_workloads::DEFAULT_BUDGET;

/// All specs, in registry order.
pub fn specs() -> Vec<&'static ExperimentSpec> {
    SPECS.iter().collect()
}

/// Simulated instructions one round requests: unique simulations × budget.
fn requested_instrs(specs: &[&ExperimentSpec]) -> u64 {
    let unique: HashSet<_> = specs.iter().flat_map(|s| (s.sims)()).collect();
    unique.len() as u64 * BUDGET
}

pub fn run(ctx: &Ctx) -> Result<WorkloadResult, String> {
    // Set-up: resolve the specs and their deduplicated request list, then
    // warm up on every workload.
    let (setup_s, mut per_rep) = repeat_setup(if ctx.quick { 1 } else { 5 }, |_| {
        let specs = specs();
        let instrs = requested_instrs(&specs);
        warm_up(&lvp_workloads::names())?;
        Ok((specs, instrs))
    })?;
    let (specs, instrs) = per_rep.pop().expect("at least one set-up");
    let max = ctx.quick.then_some(1);
    let mut tally = Tally::default();

    let untraced = closed_loop(ctx.seconds, max, |_| {
        let rendered = run_specs_with(&specs, BUDGET, WORKERS, &NullPhases, &Progress::off());
        ctx.pins.check_figs(&rendered, &mut tally);
        Ok(instrs)
    })?;
    let e2e = e2e_metrics(&setup_s, &untraced, peak_rss_mb(None)?);
    if !ctx.traced {
        return Ok(ctx.result("figs_all", tally, e2e, vec![]));
    }

    let start = Instant::now();
    let mut reqs = Vec::new();
    let traced_loop = closed_loop(ctx.seconds, max, |i| {
        let (rendered, req) = traced(format!("r{i}"), WORKERS, start, |rec| {
            run_specs_with(&specs, BUDGET, WORKERS, rec, &Progress::off())
        });
        ctx.pins.check_figs(&rendered, &mut tally);
        reqs.push(req);
        Ok(instrs)
    })?;
    write_spans(&ctx.out.join("spans.json"), &reqs)?;
    let mut layers = span_metrics(&reqs, BUDGET);
    layers.extend(replay(
        &lvp_workloads::names(),
        BUDGET,
        &ctx.out.join("layer-store"),
    )?);
    layers.push(overhead_metric(
        median(&untraced.ms),
        median(&traced_loop.ms),
        traced_loop.ms.len(),
    ));
    Ok(ctx.result("figs_all", tally, layers, e2e))
}
