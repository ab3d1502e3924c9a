//! `runner` — the sharded, deterministic batch experiment runner.
//!
//! ```text
//! cargo run --release -p lvp-bench --bin runner -- [flags]
//!
//!   --workloads a,b,c     workloads to run (default: all; `--list` to see)
//!   --schemes x,y         schemes (baseline,CAP,VTAGE,DLVP,DLVP+VTAGE|tournament)
//!   --variants v,w        config variants (default,oracle_replay,gshare,
//!                         no_prefetch,narrow_frontend,small_pvt)
//!   --budget N            dynamic instructions per workload (default 200000)
//!   --sample FF:W:D:P     fast-forward + sampled execution: skip FF insts,
//!                         then per P-inst period run W warm-only and D
//!                         detailed cycle-level insts (stats from D only)
//!   --jobs N              worker threads (default: LVP_JOBS or all cores)
//!   --out PATH            results file (default results/matrix.json)
//!   --baseline PATH       diff against a golden snapshot; non-zero exit on drift
//!   --tol-rel X           relative per-counter tolerance for --baseline (default 0)
//!   --tol-abs X           absolute per-counter tolerance for --baseline (default 0)
//!   --update-golden PATH  write the snapshot (use to regenerate goldens on
//!                         an intentional model change)
//!   --store DIR           cache per-job results in a content-addressed
//!                         store; reruns recompute only what changed
//!   --client QDIR         farm the matrix to a `serve` process via the
//!                         file queue at QDIR instead of running locally
//!                         (results stay byte-identical; the server owns
//!                         the store and the pool, so --store, --telemetry
//!                         and --host-trace are rejected)
//!   --client-timeout S    give up waiting on the server after S seconds
//!                         (default 600)
//!   --telemetry PATH      write a host-telemetry manifest of this run
//!   --host-trace PATH     write a Chrome trace of host phases (one lane
//!                         per worker) for chrome://tracing
//!   --quiet               suppress stderr progress lines
//!   --list                print workloads/schemes/variants and exit
//! ```
//!
//! The same spec produces byte-identical output for any `--jobs` value —
//! with or without telemetry: manifests and progress go to their own files
//! and stderr, never into the results artifact.

use lvp_bench::cli::{self, Args, Error};
use lvp_bench::runner::{check_against_golden, run_matrix_serviced, MatrixSpec, Tolerances};
use lvp_bench::{ConfigVariant, JobSpec, Manifest, Progress, SchemeKind};
use lvp_json::ToJson;
use lvp_store::SimService;
use lvp_uarch::SampleSpec;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: runner [--workloads a,b] [--schemes x,y] [--variants v] [--budget N]
              [--sample FF:W:D:P]
              [--jobs N] [--out PATH] [--baseline PATH] [--tol-rel X]
              [--tol-abs X] [--update-golden PATH] [--store DIR]
              [--client QDIR] [--client-timeout S]
              [--telemetry PATH] [--host-trace PATH] [--quiet] [--list]
";

fn main() -> ExitCode {
    cli::main("runner", USAGE, run)
}

/// Parses `--sample FF:WARMUP:DETAIL:PERIOD`.
fn parse_sample(v: &str) -> cli::Result<SampleSpec> {
    let parts = v
        .split(':')
        .map(str::parse)
        .collect::<Result<Vec<u64>, _>>()
        .map_err(|_| Error::Usage("--sample needs FF:WARMUP:DETAIL:PERIOD".into()))?;
    let [ff, warmup, detail, period] = parts[..] else {
        return cli::usage("--sample needs exactly four ':'-separated integers");
    };
    let sample = SampleSpec {
        ff,
        warmup,
        detail,
        period,
    };
    sample
        .validate()
        .map_err(|e| Error::Usage(format!("--sample: {e}")))?;
    Ok(sample)
}

fn run(args: &mut Args) -> cli::Result<ExitCode> {
    let mut spec = MatrixSpec::full(lvp_workloads::DEFAULT_BUDGET);
    if let Some(workloads) = args.list("--workloads")? {
        spec.workloads = workloads;
    }
    if let Some(schemes) = args.list("--schemes")? {
        spec.schemes = schemes
            .iter()
            .map(|s| cli::scheme(s))
            .collect::<cli::Result<_>>()?;
    }
    if let Some(variants) = args.list("--variants")? {
        spec.variants = variants
            .iter()
            .map(|v| {
                ConfigVariant::from_name(v)
                    .ok_or_else(|| Error::Usage(format!("unknown variant '{v}'")))
            })
            .collect::<cli::Result<_>>()?;
    }
    if let Some(budget) = args.parsed("--budget")? {
        spec.budget = budget;
    }
    if let Some(sample) = args.value("--sample")? {
        spec.sample = Some(parse_sample(&sample)?);
    }
    let jobs = args.jobs()?;
    let out = args
        .path("--out")?
        .unwrap_or_else(|| PathBuf::from("results/matrix.json"));
    let baseline = args.path("--baseline")?;
    let update_golden = args.path("--update-golden")?;
    let tol = Tolerances {
        rel: args.parsed("--tol-rel")?.unwrap_or(0.0),
        abs: args.parsed("--tol-abs")?.unwrap_or(0.0),
    };
    let store = args.store()?;
    let client = args.path("--client")?;
    let client_timeout_s: u64 = args.parsed("--client-timeout")?.unwrap_or(600);
    let telemetry = args.telemetry()?;
    let quiet = args.quiet();
    let list = args.flag("--list");
    args.finish()?;

    if list {
        println!("workloads:");
        print!("{}", cli::workload_table());
        println!("schemes:");
        for s in SchemeKind::all() {
            println!("  {}", s.name());
        }
        println!("variants:");
        for v in ConfigVariant::all() {
            println!("  {}", v.name());
        }
        return Ok(ExitCode::SUCCESS);
    }
    if let Err(bad) = spec.validate() {
        return cli::usage(format!(
            "unknown workloads: {} (try --list)",
            bad.join(", ")
        ));
    }
    if client.is_some() && store.is_some() {
        return cli::usage(
            "--client and --store are mutually exclusive (the server owns the store)",
        );
    }
    if client.is_some() && telemetry.enabled() {
        return cli::usage(
            "--client records no host telemetry (the server runs the jobs); \
             drop --telemetry/--host-trace",
        );
    }

    let njobs = spec.expand().len();
    if !quiet {
        eprintln!(
            "runner: {} jobs ({} workloads x {} variants x {} schemes), budget {}, {} workers",
            njobs,
            spec.workloads.len(),
            spec.variants.len(),
            spec.schemes.len(),
            spec.budget,
            jobs,
        );
    }
    let t0 = std::time::Instant::now();
    let results = if let Some(queue) = &client {
        // Farm the whole matrix to a serve process; the reassembled
        // results are byte-identical to a local run.
        let (results, sources) = lvp_bench::serve::client_run_matrix(
            queue,
            &spec,
            50,
            client_timeout_s.saturating_mul(1000),
        )?;
        if !quiet {
            eprintln!(
                "runner: served via {} (store {}, computed {}, deduped {})",
                queue.display(),
                sources.get("store").copied().unwrap_or(0),
                sources.get("computed").copied().unwrap_or(0),
                sources.get("deduped").copied().unwrap_or(0),
            );
        }
        results
    } else {
        let progress = Progress::new("runner", njobs, !quiet);
        let service = SimService::from_flag(store.as_deref())?;
        cli::with_telemetry!(
            telemetry,
            |phases| run_matrix_serviced(&spec, jobs, phases, &progress, &service),
            |rec| {
                let seeds = spec.expand().iter().map(JobSpec::seed).collect();
                let store = service.enabled().then(|| service.counters());
                Manifest::build(
                    "runner",
                    &spec.to_json(),
                    spec.budget,
                    seeds,
                    jobs,
                    rec,
                    store,
                )
            },
        )?
    };
    if !quiet {
        eprintln!("runner: completed in {:.2}s", t0.elapsed().as_secs_f64());
    }

    // A job that committed nothing would flow 0.0 IPC into every derived
    // figure; surface the typed EmptyRun error per job and fail instead.
    let mut empty_jobs = 0usize;
    for j in &results.jobs {
        if let Err(e) = j.outcome.stats.try_ipc() {
            eprintln!(
                "runner: {} / {} / {}: {e}",
                j.spec.workload,
                j.spec.variant.name(),
                j.spec.scheme.name()
            );
            empty_jobs += 1;
        }
    }
    if empty_jobs > 0 {
        return Err(format!("{empty_jobs} empty job(s); refusing to write results").into());
    }

    let doc = results.to_json().pretty();
    cli::write(&out, &doc)?;
    println!("wrote {}", out.display());
    if let Some(golden) = &update_golden {
        cli::write(golden, &doc)?;
        println!("updated golden {}", golden.display());
    }

    if let Some(golden) = &baseline {
        let drifts = check_against_golden(&results, golden, tol)?;
        if !drifts.is_empty() {
            eprintln!(
                "baseline check FAILED against {}: {} counters drifted",
                golden.display(),
                drifts.len()
            );
            for d in drifts.iter().take(50) {
                eprintln!("  {d}");
            }
            if drifts.len() > 50 {
                eprintln!("  ... and {} more", drifts.len() - 50);
            }
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "baseline check PASSED against {} (tol rel {} abs {})",
            golden.display(),
            tol.rel,
            tol.abs
        );
    }
    Ok(ExitCode::SUCCESS)
}
