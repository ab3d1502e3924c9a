//! `analyze` — static load/store dependence analysis with the
//! static-vs-dynamic cross-validation gate.
//!
//! ```text
//! cargo run --release -p lvp-bench --bin analyze -- [flags]
//!
//!   --workloads a,b,c    workloads to analyze (default: all; `--list` to see)
//!   --budget N           dynamic instructions per workload for the
//!                        cross-validation simulation (default 60000)
//!   --out PATH           report file (default results/analysis/report.json)
//!   --depgraph PATH      static dependence-graph file (default
//!                        results/analysis/depgraph.json); purely static, so
//!                        byte-identical across budgets and bug injections
//!   --json PATH          also write a machine-readable violations document
//!                        (schema: {passed, total_violations, violations:
//!                        [{workload, pc, rule, detail}]})
//!   --check              additionally verify report *and* depgraph are
//!                        byte-identical to the existing files (determinism
//!                        gate)
//!   --inject-train-bug   disable the APT's §3.1.2 confidence reset on
//!                        address mismatch (must make the gate FAIL; used to
//!                        demonstrate the gate catches predictor bugs)
//!   --inject-lscd-bug    make the LSCD also capture cleanly-validated
//!                        loads, so conflict-free PCs get suppressed (rule
//!                        R7 must catch this)
//!   --list               print workloads and exit
//!   --help               print this help and exit
//! ```
//!
//! Exit status: 0 when the cross-validation gate passes (and, with
//! `--check`, both artifacts are byte-identical); 1 on violations or
//! determinism failures; 2 on usage errors. Warn-level path-hash
//! collisions (rule R8) are counted in the report but never affect the
//! exit status.

use lvp_analysis::XvalConfig;
use lvp_bench::analysis::{
    analyze_workloads_serviced, depgraph_json, report_json, total_collisions, total_violations,
};
use lvp_bench::cli::{self, Args};
use lvp_bench::{Manifest, Progress};
use lvp_json::{Json, ToJson};
use lvp_store::SimService;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: analyze [--workloads a,b] [--budget N] [--out PATH] [--depgraph PATH]
               [--json PATH] [--check] [--inject-train-bug] [--inject-lscd-bug]
               [--store DIR] [--telemetry PATH] [--host-trace PATH] [--quiet]
               [--list] [--help]

  --workloads a,b,c    workloads to analyze (default: all)
  --budget N           dynamic instructions per workload (default 60000)
  --out PATH           report file (default results/analysis/report.json)
  --depgraph PATH      static dependence graphs (default results/analysis/depgraph.json)
  --json PATH          machine-readable violations document
  --check              byte-compare report and depgraph against existing files
  --inject-train-bug   seed the APT training bug (gate must FAIL)
  --inject-lscd-bug    seed the LSCD over-capture bug (rule R7 must FAIL)
  --store DIR          cache the validating simulations in a content-addressed
                       store; reruns recompute only what changed
  --telemetry PATH     write a host-telemetry manifest of this run
  --host-trace PATH    write a Chrome trace of the host phases
  --quiet              suppress stderr progress lines
  --list               print workloads and exit

exit status:
  0  gate passed (and, with --check, artifacts byte-identical)
  1  cross-validation violations, determinism failure, or I/O error
  2  usage error
";

fn main() -> ExitCode {
    cli::main("analyze", USAGE, run)
}

/// Writes `text` to `path`, or with `check` compares byte-for-byte against
/// the existing file. `what` labels messages.
fn write_or_check(path: &Path, text: &str, check: bool, what: &str) -> Result<(), String> {
    if !check {
        cli::write(path, text)?;
        println!("wrote {}", path.display());
        return Ok(());
    }
    let prev = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if prev != text {
        return Err(format!(
            "{what} differs from existing {} (non-determinism or un-regenerated artifact)",
            path.display()
        ));
    }
    println!("{what} determinism check PASSED against {}", path.display());
    Ok(())
}

fn run(args: &mut Args) -> cli::Result<ExitCode> {
    args.help()?;
    let names = args.list("--workloads")?.unwrap_or_default();
    let budget: u64 = args.parsed("--budget")?.unwrap_or(60_000);
    let out = args
        .path("--out")?
        .unwrap_or_else(|| PathBuf::from("results/analysis/report.json"));
    let depgraph_out = args
        .path("--depgraph")?
        .unwrap_or_else(|| PathBuf::from("results/analysis/depgraph.json"));
    let json_out = args.path("--json")?;
    let store = args.store()?;
    let telemetry = args.telemetry()?;
    let check = args.flag("--check");
    let inject_train_bug = args.flag("--inject-train-bug");
    let inject_lscd_bug = args.flag("--inject-lscd-bug");
    let quiet = args.quiet();
    let list = args.flag("--list");
    args.finish()?;

    if list {
        println!("workloads:");
        print!("{}", cli::workload_table());
        return Ok(ExitCode::SUCCESS);
    }
    let workloads: Vec<lvp_workloads::Workload> = if names.is_empty() {
        lvp_workloads::all()
    } else {
        names
            .iter()
            .map(|n| cli::workload(n))
            .collect::<cli::Result<_>>()?
    };
    let pap = dlvp::PapConfig {
        train_reset_on_mismatch: !inject_train_bug,
        ..dlvp::PapConfig::default()
    };
    let dlvp_cfg = dlvp::DlvpConfig {
        inject_lscd_bug,
        ..dlvp::DlvpConfig::default()
    };
    let injected = match (inject_train_bug, inject_lscd_bug) {
        (true, true) => " [INJECTED TRAIN + LSCD BUGS]",
        (true, false) => " [INJECTED TRAIN BUG]",
        (false, true) => " [INJECTED LSCD BUG]",
        (false, false) => "",
    };
    if !quiet {
        eprintln!(
            "analyze: {} workloads, budget {budget}{injected}",
            workloads.len()
        );
    }
    let t0 = std::time::Instant::now();
    let xval = XvalConfig::default();
    let progress = Progress::new("analyze", workloads.len(), !quiet);
    let service = SimService::from_flag(store.as_deref())?;
    let results = cli::with_telemetry!(
        telemetry,
        |phases| analyze_workloads_serviced(
            &workloads, budget, pap, dlvp_cfg, &xval, phases, &progress, &service,
        ),
        |rec| {
            let names = workloads.iter().map(|w| w.name.to_json()).collect();
            let config = Json::obj([
                ("workloads", Json::Array(names)),
                ("budget", budget.to_json()),
                ("inject_train_bug", inject_train_bug.to_json()),
                ("inject_lscd_bug", inject_lscd_bug.to_json()),
            ]);
            let store = service.enabled().then(|| service.counters());
            Manifest::build("analyze", &config, budget, Vec::new(), 1, rec, store)
        },
    )?;
    if !quiet {
        eprintln!("analyze: completed in {:.2}s", t0.elapsed().as_secs_f64());
    }

    write_or_check(
        &out,
        &report_json(&results, budget).pretty(),
        check,
        "report",
    )?;
    let depgraph = depgraph_json(&results).pretty();
    write_or_check(&depgraph_out, &depgraph, check, "depgraph")?;
    if let Some(path) = &json_out {
        let violations: Vec<Json> = results
            .iter()
            .flat_map(|r| {
                r.violations.iter().map(|v| {
                    Json::obj([
                        ("workload", r.name.to_json()),
                        ("pc", v.pc.to_json()),
                        ("rule", v.rule.to_json()),
                        ("detail", v.detail.to_json()),
                    ])
                })
            })
            .collect();
        let doc = Json::obj([
            ("passed", (total_violations(&results) == 0).to_json()),
            (
                "total_violations",
                (total_violations(&results) as u64).to_json(),
            ),
            (
                "total_hash_collisions",
                (total_collisions(&results) as u64).to_json(),
            ),
            ("violations", Json::Array(violations)),
        ]);
        cli::write(path, &doc.pretty())?;
        println!("wrote {}", path.display());
    }

    for r in &results {
        let counts = r.analysis.class_counts();
        eprintln!(
            "  {:<12} loads {:>3} (const {:>2} strided {:>2} path {:>2} unk {:>2}) \
             conflict-free {:>3} must-edges {:>2} collisions {:>2} violations {}",
            r.name,
            r.loads.len(),
            counts[0],
            counts[1],
            counts[2],
            counts[3],
            r.loads.iter().filter(|l| l.conflict_free).count(),
            r.dep.graph.must_edges().count(),
            r.dep.collisions.len(),
            r.violations.len(),
        );
        for c in &r.dep.collisions {
            eprintln!(
                "    warn [R8] load {:#x}: addresses {:#x}/{:#x} collide at APT ({}, {:#x})",
                c.pc, c.addr_a, c.addr_b, c.index, c.tag
            );
        }
        for v in &r.violations {
            eprintln!("    VIOLATION [{}] {}", v.rule, v.detail);
        }
    }
    let collisions = total_collisions(&results);
    if collisions > 0 {
        eprintln!("analyze: {collisions} warn-level path-hash collisions (R8)");
    }
    let total = total_violations(&results);
    if total > 0 {
        return Err(format!("cross-validation FAILED: {total} violations").into());
    }
    println!("cross-validation gate PASSED ({} workloads)", results.len());
    Ok(ExitCode::SUCCESS)
}
