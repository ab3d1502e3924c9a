//! `bench` — the sim-throughput regression gate.
//!
//! ```text
//! cargo run --release -p lvp-bench --bin bench -- [flags]
//!
//!   --check                compare this run against the committed baseline
//!                          (non-zero exit when the gate fails)
//!   --baseline PATH        baseline document (default BENCH_simcore.json)
//!   --out PATH             write this run as a schema-v2 baseline document
//!   --tol-rel X            override the baseline's relative tolerance band
//!   --samples N            timed samples per cell (clamped to >= 5)
//!   --warmup-ms N          warm-up wall-clock discarded per cell
//!   --min-sample-ms N      minimum wall-clock per timed sample
//!   --inject-slowdown      busy-loop the simcore step (results stay
//!                          bit-identical; --check must FAIL — proves the
//!                          gate bites)
//!   --telemetry PATH       write a host-telemetry manifest of this run
//!   --host-trace PATH      write a Chrome trace of the host phases
//!   --validate-manifest P  parse a telemetry manifest and exit (CI smoke:
//!                          0 iff the file round-trips the schema)
//!   --list                 print the benchmark matrix and exit
//! ```
//!
//! Measurement policy: median-of-N (N >= 5) per-run wall time after a
//! discarded warm-up, per cell. Deterministic counters are compared
//! exactly; medians under the relative tolerance band. See DESIGN.md §12.

use lvp_bench::cli::{self, Args};
use lvp_bench::perf::{
    bench_doc, check, run_benchmarks, Baseline, BenchPolicy, ANALYZE_BUDGET, ANALYZE_WORKLOAD,
    DEFAULT_TOL_REL, EMU_PHASE, FUZZ_PROFILE, FUZZ_SEEDS, INJECT_SPIN, MEM_PHASE, PREDICTORS,
    PREDICTORS_PHASE, PREDICTORS_WORKLOAD, SIMCORE_BUDGET, SIMCORE_SCHEMES, SIMCORE_WORKLOADS,
    STORE_PHASES, TIER_SAMPLE, TIER_SAMPLED_PHASE,
};
use lvp_bench::telemetry::{fmt_rate, Manifest};
use lvp_json::{Json, ToJson};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: bench [--check] [--baseline PATH] [--out PATH] [--tol-rel X]
             [--samples N] [--warmup-ms N] [--min-sample-ms N]
             [--inject-slowdown] [--telemetry PATH] [--host-trace PATH]
             [--validate-manifest PATH] [--list]
";

fn main() -> ExitCode {
    cli::main("bench", USAGE, run)
}

/// Reads and parses a JSON document.
fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

/// The CI telemetry smoke: succeeds iff the manifest parses and
/// re-serializes to the same bytes it was written with.
fn validate_manifest(path: &Path) -> Result<(), String> {
    let doc = read_json(path)?;
    let manifest = Manifest::parse(&doc)
        .map_err(|e| format!("{} is not a telemetry manifest: {e}", path.display()))?;
    if manifest.to_json().pretty() != doc.pretty() {
        return Err(format!(
            "{} does not round-trip the manifest schema",
            path.display()
        ));
    }
    println!(
        "manifest OK: tool {}, config {}, {} jobs on {} workers, {} sim cycles/s",
        manifest.tool,
        manifest.config_hash,
        manifest.jobs,
        manifest.workers,
        fmt_rate(manifest.sim_cycles_per_sec),
    );
    Ok(())
}

fn print_matrix() {
    println!(
        "simcore   : {} workloads x {} schemes, budget {}",
        SIMCORE_WORKLOADS.len(),
        SIMCORE_SCHEMES.len(),
        SIMCORE_BUDGET
    );
    for w in SIMCORE_WORKLOADS {
        for s in SIMCORE_SCHEMES {
            println!("  simcore/{w}/{}", s.name());
        }
    }
    println!(
        "emu       : {} workloads' record streams drained from the emulator, budget {}",
        SIMCORE_WORKLOADS.len(),
        SIMCORE_BUDGET
    );
    for w in SIMCORE_WORKLOADS {
        println!("  {EMU_PHASE}/{w}/records");
    }
    println!(
        "mem       : {} workloads' loads and stores through the hierarchy, budget {}",
        SIMCORE_WORKLOADS.len(),
        SIMCORE_BUDGET
    );
    for w in SIMCORE_WORKLOADS {
        println!("  {MEM_PHASE}/{w}/hierarchy");
    }
    println!(
        "sampled   : {} workloads x DLVP, budget {} (ff {} / warm {} / detail {} / period {})",
        SIMCORE_WORKLOADS.len(),
        SIMCORE_BUDGET,
        TIER_SAMPLE.ff,
        TIER_SAMPLE.warmup,
        TIER_SAMPLE.detail,
        TIER_SAMPLE.period,
    );
    for w in SIMCORE_WORKLOADS {
        println!("  {TIER_SAMPLED_PHASE}/{w}/DLVP");
    }
    println!(
        "store     : {} workloads x {{cold miss, warm hit}}, budget {}",
        SIMCORE_WORKLOADS.len(),
        SIMCORE_BUDGET
    );
    for w in SIMCORE_WORKLOADS {
        for p in STORE_PHASES {
            println!("  {p}/{w}/DLVP");
        }
    }
    println!(
        "predictors: {} lookup+train on {PREDICTORS_WORKLOAD}'s trace, budget {SIMCORE_BUDGET}",
        PREDICTORS.map(|(p, _)| p).join(", ")
    );
    for (p, _) in PREDICTORS {
        println!("  {PREDICTORS_PHASE}/{PREDICTORS_WORKLOAD}/{p}");
    }
    println!("analyze   : {ANALYZE_WORKLOAD}, budget {ANALYZE_BUDGET}");
    println!("fuzz_oracle: profile {FUZZ_PROFILE}, seeds 0..{FUZZ_SEEDS}");
}

fn run(args: &mut Args) -> cli::Result<ExitCode> {
    if args.flag("--list") {
        args.finish()?;
        print_matrix();
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(path) = args.path("--validate-manifest")? {
        args.finish()?;
        validate_manifest(&path)?;
        return Ok(ExitCode::SUCCESS);
    }

    let baseline_path = args
        .path("--baseline")?
        .unwrap_or_else(|| PathBuf::from("BENCH_simcore.json"));
    let out = args.path("--out")?;
    let tol_override: Option<f64> = args.parsed("--tol-rel")?;
    let mut policy = BenchPolicy::default();
    if let Some(n) = args.parsed("--samples")? {
        policy.samples = n;
    }
    if let Some(ms) = args.parsed("--warmup-ms")? {
        policy.warmup = Duration::from_millis(ms);
    }
    if let Some(ms) = args.parsed("--min-sample-ms")? {
        policy.min_sample = Duration::from_millis(ms);
    }
    let telemetry = args.telemetry()?;
    let do_check = args.flag("--check");
    let inject = args.flag("--inject-slowdown");
    args.finish()?;

    let spin = if inject { INJECT_SPIN } else { 0 };
    if inject {
        eprintln!("bench: injecting a {INJECT_SPIN}-iteration busy loop per simulated instruction");
    }
    let rows = cli::with_telemetry!(
        telemetry,
        |phases| run_benchmarks(&policy, spin, phases),
        |rec| {
            let workloads = SIMCORE_WORKLOADS.iter().map(|w| w.to_json()).collect();
            let config = Json::obj([
                ("workloads", Json::Array(workloads)),
                ("budget", SIMCORE_BUDGET.to_json()),
                ("samples", (policy.normalized().samples as u64).to_json()),
                ("inject_slowdown", inject.to_json()),
            ]);
            let seeds = (0..FUZZ_SEEDS).collect();
            Manifest::build("bench", &config, SIMCORE_BUDGET, seeds, 1, rec, None)
        },
    )?;

    println!(
        "{:<12} {:<12} {:<14} {:>14} {:>14}",
        "phase", "workload", "scheme", "median_ns", "cycles/s"
    );
    for r in &rows {
        println!(
            "{:<12} {:<12} {:<14} {:>14} {:>14}",
            r.phase,
            r.workload,
            r.scheme,
            r.median_ns,
            fmt_rate(r.sim_cycles_per_sec)
        );
    }
    if let Some(path) = &out {
        let doc = bench_doc(&policy, tol_override.unwrap_or(DEFAULT_TOL_REL), &rows);
        cli::write(path, &(doc.pretty() + "\n"))?;
        println!("wrote {}", path.display());
    }

    if do_check {
        let baseline = Baseline::parse(&read_json(&baseline_path)?)?;
        let report = check(&baseline, &rows, tol_override);
        for note in &report.notes {
            eprintln!("note: {note}");
        }
        if !report.passed() {
            eprintln!(
                "bench: throughput gate FAILED against {} ({} failure(s)):",
                baseline_path.display(),
                report.failures.len()
            );
            for f in &report.failures {
                eprintln!("  {f}");
            }
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "throughput gate PASSED against {} (tol rel {}, {} cells)",
            baseline_path.display(),
            tol_override.unwrap_or(baseline.tol_rel),
            rows.len()
        );
    }
    Ok(ExitCode::SUCCESS)
}
