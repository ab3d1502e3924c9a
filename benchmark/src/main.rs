//! The repository benchmark: end-to-end host performance of the DLVP
//! reproduction on three workloads, and a traced run that attributes it to
//! layers. See `benchmark/README.md`; run through `benchmark/run.sh`, which
//! builds this harness and the `serve` binary first.
//!
//! ```text
//! benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!                 [--quick] --serve-bin PATH
//! benchmark pin
//! benchmark compare --base RUN.json... --change RUN.json...
//! ```
//!
//! Without `--workload`, every workload runs in its own child process.
//! Paths are relative to the repository root, the working directory.

mod compare;
mod figs_all;
mod harness;
mod layers;
mod pins;
mod report;
mod sampled_long;
mod serve_mixed;
mod stats;

use harness::{Ctx, WORKERS};
use lvp_json::ToJson;
use pins::{digest, Pins, SampledPin, PINS_PATH};
use report::{final_line, parse_run_doc, print_human, run_doc, write_json, Catalogue};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const OUT: &str = "benchmark/out";
const USAGE: &str = "usage: benchmark [run] [--workload W] [--seed N] [--seconds S] \
[--trace 0|1 | --traced] [--quick] --serve-bin PATH | pin | compare --base F... --change F...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("pin") => pin(),
        Some("compare") => compare::main(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => run(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    serve_bin: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
        quick: false,
        serve_bin: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &str| format!("bad value '{v}' for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                a.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--traced" => a.traced = true,
            "--quick" => a.quick = true,
            "--serve-bin" => a.serve_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(a)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run_args(args)?;
    let cat = Catalogue::load(Path::new("BENCHMARK.json"))?;
    match &a.workload {
        Some(w) if cat.workloads.contains(w) => run_one(&a, w, &cat),
        Some(w) => Err(format!("unknown workload '{w}' (have {:?})", cat.workloads)),
        None => run_all(args, &cat),
    }
}

/// Runs one workload in this process and prints its report, ending with
/// the machine-readable line.
fn run_one(a: &RunArgs, workload: &str, cat: &Catalogue) -> Result<ExitCode, String> {
    let out = Path::new(OUT).join(workload);
    if out.exists() {
        std::fs::remove_dir_all(&out)
            .map_err(|e| format!("cannot clear {}: {e}", out.display()))?;
    }
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        quick: a.quick,
        traced: a.traced,
        out: out.clone(),
        serve_bin: a.serve_bin.clone().unwrap_or_default(),
        pins: Pins::load(Path::new(PINS_PATH))?,
    };
    eprintln!(
        "benchmark: {workload} seed {} ({}, {} s{})",
        a.seed,
        if a.traced { "traced" } else { "untraced" },
        a.seconds,
        if a.quick { ", quick" } else { "" }
    );
    let mut result = match workload {
        "figs_all" => figs_all::run(&ctx)?,
        "sampled_long" => sampled_long::run(&ctx)?,
        "serve_mixed" => {
            if a.serve_bin.is_none() {
                return Err(format!("serve_mixed needs --serve-bin\n{USAGE}"));
            }
            serve_mixed::run(&ctx)?
        }
        other => return Err(format!("no implementation for workload '{other}'")),
    };
    // Report exactly the catalogue's metrics for this mode, in its order;
    // anything else measured goes with the extras.
    let listed = cat.select(a.traced, &result.metrics)?;
    let unlisted: Vec<_> = result
        .metrics
        .drain(..)
        .filter(|m| !listed.iter().any(|l| l.name == m.name))
        .collect();
    result.metrics = listed;
    result.extra.splice(0..0, unlisted);

    let doc = run_doc(std::slice::from_ref(&result));
    write_json(&out.join("run.json"), &doc)?;
    write_json(&Path::new(OUT).join("run.json"), &doc)?;
    print_human(&result);
    if let Some(p95) = result.metrics.iter().find(|m| m.name == "batch_ms_p95") {
        if let Some(note) = harness::tail_note(p95.n as usize) {
            println!("  {note}");
        }
    }
    println!("{}", final_line(&result));
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload, each in its own child process (so `peak_rss_mb` is
/// per workload), and collects their results into `benchmark/out/run.json`.
fn run_all(args: &[String], cat: &Catalogue) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut results = Vec::new();
    let mut ok = true;
    for w in &cat.workloads {
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", w])
            .status()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        ok &= status.success();
        let path = Path::new(OUT).join(w).join("run.json");
        match std::fs::read_to_string(&path) {
            Ok(text) => results.extend(parse_run_doc(&text)?),
            Err(e) => {
                ok = false;
                eprintln!("benchmark: {w} left no result ({e})");
            }
        }
    }
    write_json(&Path::new(OUT).join("run.json"), &run_doc(&results))?;
    println!("== summary ({} workloads)", results.len());
    for r in &results {
        for m in &r.metrics {
            println!(
                "  {:<13} {:<36} {:>16.6} {:<9} n={}",
                r.workload, m.name, m.value, m.unit, m.n
            );
        }
        println!("  {:<13} failed_frac {}", r.workload, r.failed_frac());
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Re-pins `benchmark/pins.json`: renders every spec (and refuses unless
/// each equals its committed `results/<name>.txt`), runs the sampled matrix,
/// and runs the same matrix in full detail for the reference IPCs.
fn pin() -> Result<ExitCode, String> {
    let mut pins = Pins::default();
    eprintln!(
        "benchmark pin: rendering every spec at budget {}",
        figs_all::BUDGET
    );
    for r in lvp_bench::run_specs(&figs_all::specs(), figs_all::BUDGET, WORKERS) {
        let path = format!("results/{}.txt", r.name);
        let committed = std::fs::read(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        if committed != r.text.as_bytes() {
            return Err(format!(
                "{} renders differently from {path}; not pinning",
                r.name
            ));
        }
        pins.figs.insert(r.name.to_string(), digest(&committed));
    }
    eprintln!("benchmark pin: sampled and full-detail sampled_long matrices");
    let sampled = lvp_bench::run_matrix(&sampled_long::matrix(Some(sampled_long::SAMPLE)), WORKERS);
    let full = lvp_bench::run_matrix(&sampled_long::matrix(None), WORKERS);
    for (s, f) in sampled.jobs.iter().zip(&full.jobs) {
        pins.sampled.push(SampledPin {
            workload: s.spec.workload.clone(),
            scheme: s.spec.scheme.name().to_string(),
            digest: digest(s.outcome.to_json().compact().as_bytes()),
            full_ipc: f.outcome.stats.ipc(),
        });
    }
    let (ipc_err, speedup_err) = pins.check_sampled(&sampled.jobs, &mut report::Tally::default());
    write_json(Path::new(PINS_PATH), &pins.to_json())?;
    println!(
        "pinned {} specs and {} sampled jobs to {PINS_PATH}; sampled IPC error {ipc_err:.3}%, speedup error {speedup_err:.3}%",
        pins.figs.len(),
        pins.sampled.len()
    );
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Metric;

    fn sorted<'a>(names: impl Iterator<Item = &'a String>) -> Vec<&'a str> {
        let mut v: Vec<&str> = names.map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    fn names(ms: &[Metric]) -> Vec<&str> {
        sorted(ms.iter().map(|m| &m.name))
    }

    #[test]
    fn committed_catalogue_lists_exactly_what_is_measured() {
        let cat = Catalogue::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        assert_eq!(cat.workloads, ["figs_all", "sampled_long", "serve_mixed"]);
        let lp = harness::Loop {
            ms: vec![1.0, 2.0],
            instrs: 10,
            wall_s: 1.0,
        };
        assert_eq!(
            names(&harness::e2e_metrics(&[0.1], &lp, 1.0)),
            sorted(cat.end_to_end.iter().map(|m| &m.name))
        );

        let store = std::env::temp_dir().join(format!("lvp-benchmark-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store);
        let mut layers = layers::span_metrics(&[], 1);
        layers.extend(layers::replay(&["aifirf"], 2_000, &store).expect("replay"));
        layers.push(layers::overhead_metric(1.0, 1.1, 1));
        std::fs::remove_dir_all(&store).expect("cleanup");
        assert_eq!(
            names(&layers),
            sorted(cat.per_layer.iter().map(|m| &m.name))
        );
        for m in &layers {
            assert_eq!(
                cat.find(&m.name).map(|s| s.unit.as_str()),
                Some(m.unit.as_str())
            );
        }
    }
}
