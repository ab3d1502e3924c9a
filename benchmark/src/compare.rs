//! `benchmark compare --base RUN.json... --change RUN.json...`: compares
//! a change with its parent from alternating runs of each (choosing-metrics
//! section 8), one row per (metric, workload).
//!
//! The i-th base file pairs with the i-th change file. End-to-end metrics
//! get a verdict under their `BENCHMARK.json` bound; deterministic values
//! must match exactly; everything else (per-layer metrics) is shown with
//! medians, quartiles and wins only.

use crate::report::{parse_run_doc, Catalogue, WorkloadResult};
use crate::stats::{verdict, Better, Side, Verdict, MIN_PAIRS};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

/// Values that repeat exactly run to run: any difference is a change.
const EXACT: [&str; 3] = [
    "failed_frac",
    "sampled_ipc_err_pct",
    "sampled_speedup_err_pct",
];

fn load(files: &[String]) -> Result<Vec<Vec<WorkloadResult>>, String> {
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?;
            parse_run_doc(&text).map_err(|e| format!("{f}: {e}"))
        })
        .collect()
}

/// One side's values of `metric` on `workload`, in file order.
fn values(runs: &[Vec<WorkloadResult>], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .flatten()
        .filter(|r| r.workload == workload)
        .filter_map(|r| match metric {
            "failed_frac" => Some(r.failed_frac()),
            _ => r.value(metric),
        })
        .collect()
}

/// One comparison row.
pub struct Row {
    pub metric: String,
    pub workload: String,
    pub base: Side,
    pub change: Side,
    pub pairs: usize,
    pub wins: usize,
    /// `None` for an unbounded (per-layer) metric.
    pub verdict: Option<Verdict>,
}

/// Builds every (metric, workload) row present on both sides.
pub fn rows(
    cat: &Catalogue,
    base: &[Vec<WorkloadResult>],
    change: &[Vec<WorkloadResult>],
) -> Vec<Row> {
    let mut out = Vec::new();
    for workload in &cat.workloads {
        let mut names: Vec<String> = vec!["failed_frac".to_string()];
        let mut seen = BTreeSet::new();
        for r in base.iter().flatten().filter(|r| &r.workload == workload) {
            for m in r.metrics.iter().chain(&r.extra) {
                if seen.insert(m.name.clone()) {
                    names.push(m.name.clone());
                }
            }
        }
        for metric in names {
            let (b, c) = (
                values(base, workload, &metric),
                values(change, workload, &metric),
            );
            if b.is_empty() || c.is_empty() {
                continue;
            }
            let spec = cat.find(&metric);
            let better = spec.map_or(Better::Lower, |s| s.better);
            let bound = if EXACT.contains(&metric.as_str()) {
                Some(0.0)
            } else {
                spec.and_then(|s| s.bound)
            };
            let (v, wins) = verdict(&b, &c, better, bound.unwrap_or(f64::INFINITY));
            out.push(Row {
                metric,
                workload: workload.clone(),
                base: Side::of(&b),
                change: Side::of(&c),
                pairs: b.len().min(c.len()),
                wins,
                verdict: bound.map(|_| v),
            });
        }
    }
    out
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let (mut base, mut change) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    for a in args {
        match a.as_str() {
            "--base" => side = Some(&mut base),
            "--change" => side = Some(&mut change),
            f => side
                .as_deref_mut()
                .ok_or("usage: benchmark compare --base RUN.json... --change RUN.json...")?
                .push(f.to_string()),
        }
    }
    if base.is_empty() || change.is_empty() {
        return Err("usage: benchmark compare --base RUN.json... --change RUN.json...".to_string());
    }
    let cat = Catalogue::load(Path::new("BENCHMARK.json"))?;
    let rows = rows(&cat, &load(&base)?, &load(&change)?);
    println!(
        "{:<34} {:<13} {:>5} {:>36} {:>36} {:>5}  verdict",
        "metric", "workload", "pairs", "base median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let side = |s: &Side| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
    let mut bad = false;
    for r in &rows {
        bad |= matches!(r.verdict, Some(Verdict::Regression));
        println!(
            "{:<34} {:<13} {:>5} {:>36} {:>36} {:>5}  {}",
            r.metric,
            r.workload,
            r.pairs,
            side(&r.base),
            side(&r.change),
            r.wins,
            r.verdict.map_or("-", Verdict::name)
        );
    }
    if rows.iter().any(|r| r.pairs < MIN_PAIRS) {
        println!("note: fewer than {MIN_PAIRS} pairs on some rows; run at least {MIN_PAIRS} alternating pairs before claiming anything");
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Metric;

    fn run(workload: &str, latency: f64, ipc_err: f64, failed: u64) -> Vec<WorkloadResult> {
        vec![WorkloadResult {
            workload: workload.to_string(),
            seed: 1,
            traced: false,
            attempted: 100,
            failed,
            notes: vec![],
            metrics: vec![Metric::new("batch_ms_p50", latency, "ms", 10)],
            extra: vec![Metric::new("sampled_ipc_err_pct", ipc_err, "%", 20)],
        }]
    }

    #[test]
    fn one_row_per_metric_and_workload_with_verdicts() {
        let cat = Catalogue::parse(
            r#"{"workloads": [{"name": "a", "why": "-"}, {"name": "b", "why": "-"}],
                "end_to_end": [{"name": "batch_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .expect("catalogue");
        let jitter = |i: usize| i as f64 * 0.1;
        let base: Vec<_> = (0..10)
            .flat_map(|i| {
                [
                    run("a", 100.0 + jitter(i), 5.0, 0),
                    run("b", 50.0 + jitter(i), 5.0, 0),
                ]
            })
            .collect();
        let change: Vec<_> = (0..10)
            .flat_map(|i| {
                [
                    run("a", 80.0 + jitter(i), 5.0, 0),
                    run("b", 50.0 + jitter(i), 5.5, 1),
                ]
            })
            .collect();
        let rows = rows(&cat, &base, &change);
        let got: Vec<(&str, &str, Option<Verdict>)> = rows
            .iter()
            .map(|r| (r.workload.as_str(), r.metric.as_str(), r.verdict))
            .collect();
        assert_eq!(
            got,
            [
                ("a", "failed_frac", Some(Verdict::NoChange)),
                ("a", "batch_ms_p50", Some(Verdict::Gain)),
                ("a", "sampled_ipc_err_pct", Some(Verdict::NoChange)),
                ("b", "failed_frac", Some(Verdict::Regression)),
                ("b", "batch_ms_p50", Some(Verdict::NoChange)),
                ("b", "sampled_ipc_err_pct", Some(Verdict::Regression)),
            ]
        );
        assert_eq!((rows[1].pairs, rows[1].wins), (10, 10));
    }
}
