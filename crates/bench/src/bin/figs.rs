//! The one experiment driver: runs any selection of the declarative
//! figure/table specs and writes `results/<name>.txt` for each.
//!
//! ```text
//! figs --list                 # what exists
//! figs --all                  # regenerate every results/*.txt
//! figs fig06_comparison       # one spec: print to stdout and write its file
//! figs fig01_conflicts fig02_repeatability --budget 50000 --jobs 4
//! figs --all --out-dir /tmp/check   # byte-diff gate in ci.sh
//! ```
//!
//! Shared simulations are deduplicated across the selected specs and run on
//! the deterministic worker pool, so the output is byte-identical for any
//! `--jobs` value — including the retired one-binary-per-figure harnesses'
//! stdout, which these files replace.

use lvp_bench::cli::{self, Args, Error};
use lvp_bench::specs::{self, ExperimentSpec};
use lvp_bench::{Manifest, Progress};
use lvp_json::{Json, ToJson};
use lvp_store::SimService;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let mut u = String::from(
        "usage: figs [--list] [--all | <spec>...] [--budget N] [--jobs N] [--out-dir DIR]\n\
         \x20           [--store DIR] [--telemetry PATH] [--host-trace PATH] [--quiet]\n\n\
         Runs the named experiment specs (or all of them) and writes\n\
         <out-dir>/<spec>.txt for each. Defaults: budget 200000, out-dir 'results',\n\
         jobs = available cores. --store DIR caches simulation results in a\n\
         content-addressed store, so reruns recompute only what changed (the\n\
         .txt artifacts stay byte-identical). --telemetry/--host-trace record\n\
         host-side phase timing (never part of the .txt artifacts); --quiet\n\
         silences progress.\n\nspecs:\n",
    );
    for spec in specs::SPECS {
        u.push_str(&format!("  {:<22} {}\n", spec.name, spec.title));
    }
    u
}

fn main() -> ExitCode {
    cli::main("figs", &usage(), run)
}

fn run(args: &mut Args) -> cli::Result<ExitCode> {
    args.help()?;
    let budget = args
        .parsed("--budget")?
        .unwrap_or(lvp_workloads::DEFAULT_BUDGET);
    let jobs = args.jobs()?;
    let out_dir = args
        .path("--out-dir")?
        .unwrap_or_else(|| PathBuf::from("results"));
    let store = args.store()?;
    let telemetry = args.telemetry()?;
    let list = args.flag("--list");
    let all = args.flag("--all");
    let quiet = args.quiet();
    let names = args.positionals()?;

    if list {
        for spec in specs::SPECS {
            println!("{:<22} {}", spec.name, spec.title);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let selected: Vec<&ExperimentSpec> = if all {
        specs::SPECS.iter().collect()
    } else {
        names
            .iter()
            .map(|n| specs::by_name(n).ok_or_else(|| Error::Usage(format!("unknown spec '{n}'"))))
            .collect::<cli::Result<_>>()?
    };
    if selected.is_empty() {
        return cli::usage("nothing to run (name specs or pass --all)");
    }

    let total: usize = {
        let mut seen = std::collections::HashSet::new();
        selected
            .iter()
            .flat_map(|s| (s.sims)())
            .filter(|r| seen.insert(*r))
            .count()
    };
    let progress = Progress::new("figs", total, !quiet && total > 0);
    let service = SimService::from_flag(store.as_deref())?;
    let rendered = cli::with_telemetry!(
        telemetry,
        |phases| specs::run_specs_serviced(&selected, budget, jobs, phases, &progress, &service),
        |rec| {
            let names = selected.iter().map(|s| s.name.to_json()).collect();
            let config = Json::obj([("specs", Json::Array(names)), ("budget", budget.to_json())]);
            let store = service.enabled().then(|| service.counters());
            Manifest::build("figs", &config, budget, Vec::new(), jobs, rec, store)
        },
    )?;

    let single = rendered.len() == 1;
    for r in &rendered {
        let path = out_dir.join(format!("{}.txt", r.name));
        cli::write(&path, &r.text)?;
        if single {
            print!("{}", r.text);
        } else {
            println!("wrote {}", path.display());
        }
    }
    Ok(ExitCode::SUCCESS)
}
