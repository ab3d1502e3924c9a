//! `fuzz` — drives lvp-fuzz campaigns through the parallel runner pool.
//!
//! ```text
//! fuzz [--profile P] [--seeds N] [--seed-base B] [--jobs J] [--out PATH]
//!      [--minimize] [--inject-train-bug] [--inject-lscd-bug] [--smoke]
//!      [--store DIR] [--telemetry PATH] [--host-trace PATH] [--quiet] [--list]
//! ```
//!
//! Each seed is synthesized, executed, soundness-checked against the static
//! analyzer, and run through the differential oracle; the campaign report
//! is a pure function of `(profile, seed range, oracle config)` — byte-
//! identical across `--jobs` values and re-runs.
//!
//! * `--smoke` pins the CI configuration (smoke profile, 25 seeds) whose
//!   report is diffed against `results/golden/fuzz_corpus.json`.
//! * `--inject-train-bug` disables `PapConfig::train_reset_on_mismatch`
//!   (the PR 2 seeded predictor bug) and *inverts* the exit semantics: the
//!   campaign must catch the bug on at least one seed, and with
//!   `--minimize` shrink it to a small reproducer.
//! * `--inject-lscd-bug` seeds `DlvpConfig::inject_lscd_bug` (the LSCD
//!   over-captures cleanly-validated loads, so statically conflict-free
//!   PCs get suppressed) with the same inverted exit semantics — the
//!   dependence rule R7 must catch it on at least one seed.
//! * `--minimize` greedily shrinks each failing seed's program and appends
//!   the reproducers to the report.
//!
//! The oracle's DLVP deep-check simulations run behind a [`SimService`]:
//! an in-memory memo by default (duplicate programs across seeds simulate
//! once), or the shared on-disk store with `--store DIR`.

use lvp_bench::cli::{self, Args, Error};
use lvp_bench::{par_map, par_map_metered, Manifest, Progress};
use lvp_fuzz::minimize::minimize;
use lvp_fuzz::{campaign_report, plan, run_seed_serviced, OracleConfig, SeedOutcome, SynthProfile};
use lvp_json::{Json, ToJson};
use lvp_obs::PhaseSink;
use lvp_store::SimService;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: fuzz [--profile P] [--seeds N] [--seed-base B] [--jobs J] [--out PATH]\n\
         \x20           [--minimize] [--inject-train-bug] [--inject-lscd-bug] [--smoke]\n\
         \x20           [--store DIR] [--telemetry PATH] [--host-trace PATH] [--quiet] [--list]\n\
         profiles: {}\n",
        SynthProfile::preset_names().join(", ")
    )
}

/// Runs the seed campaign on the worker pool, one `job:` span per seed
/// (charged with its dynamic instruction count). The outcomes are
/// byte-identical with or without recording.
fn run_campaign<P: PhaseSink>(
    seed_list: &[u64],
    jobs: usize,
    profile: &SynthProfile,
    cfg: &OracleConfig,
    phases: &P,
    progress: &Progress,
    service: &SimService,
) -> Vec<SeedOutcome> {
    let mut span = phases.span(0, "campaign");
    let outcomes = par_map_metered(
        seed_list,
        jobs,
        phases,
        progress,
        |seed| format!("job:seed{seed}/fuzz/oracle"),
        |o: &SeedOutcome| (0, o.dynamic as u64, 1),
        |&seed| run_seed_serviced(profile, seed, cfg, service),
    );
    let dynamic: u64 = outcomes.iter().map(|o| o.dynamic as u64).sum();
    span.charge(0, dynamic, outcomes.len() as u64);
    span.finish();
    outcomes
}

fn main() -> ExitCode {
    cli::main("fuzz", &usage(), run)
}

fn run(args: &mut Args) -> cli::Result<ExitCode> {
    if args.flag("--list") {
        args.finish()?;
        for name in SynthProfile::preset_names() {
            let p = SynthProfile::preset(name).expect("catalogue entry");
            println!(
                "{name:<16} loads {} mix {:?} conflict-density {} depth {} iters {}",
                p.loads, p.mix, p.store_conflict_density, p.branch_path_depth, p.iterations
            );
        }
        return Ok(ExitCode::SUCCESS);
    }
    let profile_name = args.value("--profile")?;
    let seeds: Option<u64> = args.parsed("--seeds")?;
    let seed_base: u64 = args.parsed("--seed-base")?.unwrap_or(0);
    let jobs = args.jobs()?;
    let out = args.path("--out")?;
    let store_dir = args.store()?;
    let telemetry = args.telemetry()?;
    let smoke = args.flag("--smoke");
    let do_minimize = args.flag("--minimize");
    let inject_train = args.flag("--inject-train-bug");
    let inject_lscd = args.flag("--inject-lscd-bug");
    let inject = inject_train || inject_lscd;
    let quiet = args.quiet();
    args.finish()?;

    let profile_name = profile_name.unwrap_or_else(|| if smoke { "smoke" } else { "mixed" }.into());
    let seeds = seeds.unwrap_or(if smoke { 25 } else { 50 });
    let out = out.unwrap_or_else(|| {
        if smoke {
            PathBuf::from("results/fuzz/fuzz_corpus.json")
        } else {
            PathBuf::from(format!("results/fuzz/{profile_name}.json"))
        }
    });
    let profile = SynthProfile::preset(&profile_name)
        .ok_or_else(|| Error::Usage(format!("unknown profile '{profile_name}'")))?;
    if seeds == 0 {
        return cli::usage("--seeds must be >= 1");
    }
    let seed_end = seed_base.checked_add(seeds).ok_or_else(|| {
        Error::Usage(format!(
            "--seed-base {seed_base} + --seeds {seeds} overflows u64"
        ))
    })?;

    // The oracle dedups identical deep-check sims in-process by default;
    // --store additionally persists them into the shared result store.
    let service = match store_dir.as_deref() {
        Some(dir) => SimService::open(dir)?,
        None => SimService::in_memory(),
    };

    let mut cfg = OracleConfig::default();
    if inject_train {
        cfg.sim.pap.train_reset_on_mismatch = false;
    }
    if inject_lscd {
        cfg.sim.dlvp.inject_lscd_bug = true;
    }

    let seed_list: Vec<u64> = (seed_base..seed_end).collect();
    let progress = Progress::new("fuzz", seed_list.len(), !quiet);
    let outcomes = cli::with_telemetry!(
        telemetry,
        |phases| run_campaign(&seed_list, jobs, &profile, &cfg, phases, &progress, &service),
        |rec| {
            let config = Json::obj([
                ("profile", profile_name.to_json()),
                ("seeds", seeds.to_json()),
                ("seed_base", seed_base.to_json()),
                ("inject_train_bug", inject_train.to_json()),
                ("inject_lscd_bug", inject_lscd.to_json()),
            ]);
            let store = service.enabled().then(|| service.counters());
            Manifest::build("fuzz", &config, seeds, seed_list.clone(), jobs, rec, store)
        },
    )?;

    let mut report = campaign_report(&profile, &outcomes);
    let failing: Vec<u64> = outcomes
        .iter()
        .filter(|o| !o.passed())
        .map(|o| o.seed)
        .collect();

    if do_minimize && !failing.is_empty() {
        let minimized = par_map(&failing, jobs, |&seed| {
            let spec = plan(&profile, seed);
            minimize(&spec, &cfg).map(|m| {
                Json::obj([
                    ("seed", seed.to_json()),
                    ("instructions", (m.program.instructions() as u64).to_json()),
                    ("steps", (m.steps as u64).to_json()),
                    (
                        "findings",
                        Json::Array(m.findings.iter().map(|f| f.to_json()).collect()),
                    ),
                ])
            })
        });
        if let Json::Object(ref mut fields) = report {
            fields.push((
                "minimized".into(),
                Json::Array(minimized.into_iter().flatten().collect()),
            ));
        }
    }

    cli::write(&out, &(report.pretty() + "\n"))?;

    let findings: usize = outcomes.iter().map(|o| o.findings.len()).sum();
    let unsound = outcomes.iter().filter(|o| !o.soundness.is_empty()).count();
    println!(
        "fuzz: profile {profile_name}, {} seeds ({} failing, {} unsound, {} findings) -> {}",
        outcomes.len(),
        failing.len(),
        unsound,
        findings,
        out.display()
    );
    for o in outcomes.iter().filter(|o| !o.passed()).take(5) {
        for s in &o.soundness {
            println!("  seed {}: soundness: {s}", o.seed);
        }
        for f in &o.findings {
            println!(
                "  seed {}: [{}] {}: {}",
                o.seed, f.scheme, f.invariant, f.detail
            );
        }
    }

    if inject {
        // The campaign *must* catch the seeded bug(s).
        let what = if inject_train && inject_lscd {
            "training + LSCD bugs"
        } else if inject_lscd {
            "LSCD bug"
        } else {
            "training bug"
        };
        if failing.is_empty() {
            return Err(format!("injected {what} was NOT caught over {seeds} seeds").into());
        }
        println!(
            "fuzz: injected {what} caught on {} of {} seeds",
            failing.len(),
            outcomes.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    Ok(if failing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
