//! `obs` — the observability CLI: traced runs, Chrome-trace export,
//! lifecycle reports, trace capture/replay, and tracing-overhead checks.
//!
//! ```text
//! obs run      [--workload W] [--scheme S] [--budget N] [--ring N]
//!              [--trace-out PATH] [--report-out PATH] [--store DIR]
//!   Simulate one (workload, scheme) with event tracing on. Writes a Chrome
//!   trace_event JSON (load it at chrome://tracing) and a per-load-PC
//!   lifecycle report, then cross-checks the report's injected/correct
//!   columns against SimStats::per_pc — exact reconciliation or exit 1.
//!   With `--store DIR` the run consults the content-addressed result
//!   store under the same request key as `figs`/`runner` (recording its
//!   outcome on a miss), and the store interaction itself is observed:
//!   `store_access` events land in the Chrome trace and lazily-created
//!   `store_*` counters in the report. Without the flag neither exists,
//!   so store-disabled artifacts keep their exact bytes.
//!
//! obs record <workload> <budget> <file>   emulate once, save the trace
//!   (streams records to disk as they execute; the trace never materializes
//!   in memory, so budget is bounded by disk, not RAM)
//! obs stats  <file>                       inspect a saved trace
//! obs replay <file> [scheme]              time a saved trace under a scheme
//! obs misp     [--workload W] [--budget N] [--top N]
//!   Rank load PCs by VTAGE value mispredictions, with disassembly.
//! obs overhead [--workload W] [--budget N] [--max-ratio X]
//!   Measure the wall-clock cost of tracing vs the NullSink build of the
//!   same run (min of 3 each); exit 1 if the ratio exceeds --max-ratio.
//! ```
//!
//! Every artifact `obs run` writes is a pure function of (workload, scheme,
//! budget, ring): byte-identical across re-runs, machines, and thread
//! counts. Host-timing output (the profiler, `overhead`) goes to stderr
//! only and never into an artifact.

use lvp_bench::cli::{self, Args};
use lvp_bench::{run_scheme, run_scheme_with, sim_request_doc, SchemeKind};
use lvp_json::ToJson;
use lvp_obs::{
    chrome_trace, LifecycleReport, ObsEvent, PhaseRecorder, PhaseSink, RingSink, RunMeta, StoreOp,
};
use lvp_store::SimService;
use lvp_trace::{read_trace, TraceWriter};
use lvp_uarch::{fmt_pct, simulate, CoreConfig, NoVp, SimConfig, SimStats};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::process::ExitCode;

const DEFAULT_BUDGET: u64 = 20_000;

const USAGE: &str = "\
usage: obs run      [--workload W] [--scheme S] [--budget N] [--ring N]
                    [--trace-out PATH] [--report-out PATH] [--store DIR]
       obs record   <workload> <budget> <file>
       obs stats    <file>
       obs replay   <file> [baseline|dlvp|cap|vtage|tournament]
       obs misp     [--workload W] [--budget N] [--top N]
       obs overhead [--workload W] [--budget N] [--max-ratio X]
";

/// Cross-checks the lifecycle report against `SimStats::per_pc` — the
/// logic lives on [`LifecycleReport::reconcile_injections`] so the fuzz
/// oracle shares it.
fn reconcile(report: &LifecycleReport, stats: &SimStats) -> Result<u64, String> {
    report.reconcile_injections(
        stats
            .per_pc
            .iter()
            .map(|(&pc, s)| (pc, (s.injected, s.correct, s.conflict_squashes))),
    )
}

fn cmd_run(args: &mut Args) -> cli::Result<ExitCode> {
    let workload = args.value("--workload")?.unwrap_or_else(|| "aifirf".into());
    let scheme_name = args.value("--scheme")?.unwrap_or_else(|| "dlvp".into());
    let budget: u64 = args.parsed("--budget")?.unwrap_or(DEFAULT_BUDGET);
    let ring: usize = args
        .parsed("--ring")?
        .unwrap_or_else(|| (budget as usize).saturating_mul(8).max(1));
    let slug = format!("{workload}_{}", scheme_name.to_ascii_lowercase());
    let trace_out = args
        .path("--trace-out")?
        .unwrap_or_else(|| PathBuf::from(format!("results/obs/{slug}.chrome.json")));
    let report_out = args
        .path("--report-out")?
        .unwrap_or_else(|| PathBuf::from(format!("results/obs/{slug}.report.json")));
    let store = args.store()?;
    args.finish()?;

    let w = cli::workload(&workload)?;
    let scheme = cli::scheme(&scheme_name)?;
    if ring == 0 {
        return cli::usage("--ring must be >= 1");
    }
    let service = SimService::from_flag(store.as_deref())?;

    let prof = PhaseRecorder::new();
    let trace = prof.time(0, "emulate", || w.trace(budget));
    let (outcome, sink) = prof.time(0, "simulate", || {
        run_scheme_with(
            &trace,
            scheme,
            &SimConfig::default(),
            RingSink::new(ring),
            0,
        )
    });
    let ring = sink.into_ring();
    let overwritten = ring.overwritten();
    let mut events = ring.drain();
    let stats = &outcome.stats;

    // A store-enabled run shares the content-addressed key space with
    // `figs`/`runner` and observes its own store traffic as events. The
    // traced simulation always executes (the events are the product); the
    // store just gains this run's outcome so untraced sweeps hit on it.
    if service.enabled() {
        let key = service.key(&sim_request_doc(
            trace.fingerprint(),
            budget,
            scheme.name(),
            &SimConfig::default(),
        ));
        let cycle = stats.cycles;
        match service.lookup(&key) {
            Some(_) => events.push(ObsEvent::StoreAccess {
                cycle,
                op: StoreOp::Hit,
            }),
            None => {
                events.push(ObsEvent::StoreAccess {
                    cycle,
                    op: StoreOp::Miss,
                });
                match service.record(&key, &outcome.to_json()) {
                    Ok(()) => events.push(ObsEvent::StoreAccess {
                        cycle,
                        op: StoreOp::Write,
                    }),
                    Err(e) => eprintln!("obs: warning: result store write failed: {e}"),
                }
            }
        }
    }

    // Satellite: an empty run must be a typed error, not a silent 0.0 IPC.
    let ipc = stats
        .try_ipc()
        .map_err(|e| format!("{workload}/{}: {e}", scheme.name()))?;

    let meta = RunMeta {
        workload: workload.clone(),
        scheme: scheme.name().to_string(),
        budget,
    };
    let report = prof.time(0, "join", || {
        LifecycleReport::build(meta, &events, overwritten)
    });
    let chrome = prof.time(0, "export", || chrome_trace(&events));

    if overwritten > 0 {
        eprintln!(
            "obs: warning: ring overwrote {overwritten} events; the report is a \
             lower bound and is not reconciled (raise --ring)"
        );
    } else {
        match reconcile(&report, stats) {
            Ok(pcs) => eprintln!(
                "obs: report reconciled with SimStats::per_pc across {pcs} predicted load PCs"
            ),
            Err(msg) => return Err(format!("RECONCILIATION FAILED\n{msg}").into()),
        }
    }

    cli::write(&trace_out, &(chrome.compact() + "\n"))?;
    cli::write(&report_out, &report.to_json().pretty())?;

    println!(
        "{workload}/{}: {} cycles, IPC {ipc:.3}, coverage {}, accuracy {}",
        scheme.name(),
        stats.cycles,
        fmt_pct(stats.try_coverage(), 1),
        fmt_pct(stats.try_accuracy(), 2),
    );
    println!(
        "recorded {} events ({} overwritten); {} load PCs in report",
        report.recorded(),
        overwritten,
        report.per_pc().len()
    );
    println!("wrote {}", trace_out.display());
    println!("wrote {}", report_out.display());
    if service.enabled() {
        let c = service.counters();
        println!(
            "store: hits {} misses {} writes {}",
            c.hits, c.misses, c.writes
        );
    }
    eprint!("{}", prof.report(stats.instructions));
    Ok(ExitCode::SUCCESS)
}

fn cmd_record(args: &mut Args) -> cli::Result<ExitCode> {
    let [workload, budget, file] = &args.positionals()?[..] else {
        return cli::usage("record takes <workload> <budget> <file>");
    };
    let w = cli::workload(workload)?;
    let Ok(budget) = budget.parse::<u64>() else {
        return cli::usage("record: budget must be an integer");
    };
    let out = File::create(file).map_err(|e| format!("cannot create {file}: {e}"))?;
    // Stream straight from the emulator to disk: each record is written as
    // it executes, so the capture never holds the trace in memory.
    let written = (|| -> std::io::Result<u64> {
        let mut writer = TraceWriter::new(BufWriter::new(out))?;
        for rec in lvp_emu::Emulator::new(w.program()).records(budget) {
            writer.push(&rec)?;
        }
        let n = writer.count();
        writer.finish()?;
        Ok(n)
    })();
    let written = written.map_err(|e| format!("cannot write {file}: {e}"))?;
    println!("recorded {written} instructions of {workload} to {file}");
    Ok(ExitCode::SUCCESS)
}

fn read_trace_file(file: &str) -> Result<lvp_trace::Trace, String> {
    let f = File::open(file).map_err(|e| format!("cannot open {file}: {e}"))?;
    read_trace(BufReader::new(f)).map_err(|e| format!("cannot parse {file}: {e}"))
}

fn cmd_stats(args: &mut Args) -> cli::Result<ExitCode> {
    let [file] = &args.positionals()?[..] else {
        return cli::usage("stats takes <file>");
    };
    let trace = read_trace_file(file)?;
    println!("instructions : {}", trace.len());
    println!("loads        : {}", trace.load_count());
    println!("stores       : {}", trace.store_count());
    println!("branches     : {}", trace.branch_count());
    let mut rep = lvp_trace::RepeatProfiler::default();
    let mut conf = lvp_trace::ConflictProfiler::new(96);
    for rec in trace.records() {
        rep.push(rec);
        conf.push(rec);
    }
    let (rep, conf) = (rep.finish(), conf.finish());
    match lvp_trace::RepeatProfile::threshold_index(8) {
        Some(i8) => println!("addr repeat>=8: {:.1}%", rep.addr_fraction(i8) * 100.0),
        None => eprintln!("obs: repeat profile has no >=8 threshold bucket"),
    }
    println!(
        "store-conflicting loads: {:.1}%",
        conf.total_fraction() * 100.0
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_replay(args: &mut Args) -> cli::Result<ExitCode> {
    let (file, scheme_name) = match &args.positionals()?[..] {
        [file] => (file.clone(), "dlvp".to_string()),
        [file, scheme, ..] => (file.clone(), scheme.clone()),
        [] => return cli::usage("replay takes <file> [scheme]"),
    };
    let trace = read_trace_file(&file)?;
    let scheme = cli::scheme(&scheme_name)?;
    let base = simulate(&trace, NoVp);
    let stats = if scheme == SchemeKind::Baseline {
        base.clone()
    } else {
        run_scheme(&trace, scheme, &SimConfig::default()).stats
    };
    let ipc = stats.try_ipc().map_err(|e| format!("{file}: {e}"))?;
    println!(
        "{}: {} cycles, IPC {ipc:.3}, speedup {:+.2}%, coverage {}, accuracy {}",
        scheme.name(),
        stats.cycles,
        (stats.speedup_over(&base) - 1.0) * 100.0,
        fmt_pct(stats.try_coverage(), 1),
        fmt_pct(stats.try_accuracy(), 2)
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_misp(args: &mut Args) -> cli::Result<ExitCode> {
    let workload = args.value("--workload")?.unwrap_or_else(|| "autcor".into());
    let budget: u64 = args.parsed("--budget")?.unwrap_or(200_000);
    let top: usize = args.parsed("--top")?.unwrap_or(6);
    args.finish()?;

    let w = cli::workload(&workload)?;
    let t = w.trace(budget);
    let core = lvp_uarch::Core::new(CoreConfig::default(), dlvp::Vtage::paper_default());
    let (s, v) = core.run_with_scheme(&t);
    match s.try_accuracy() {
        Ok(acc) => println!("{workload}: flushes {} accuracy {acc:.4}", s.vp_flushes),
        Err(_) => println!("{workload}: flushes {} (no predictions made)", s.vp_flushes),
    }
    let mut m: Vec<_> = v.misp_by_pc().iter().collect();
    m.sort_by_key(|(pc, c)| (std::cmp::Reverse(**c), **pc));
    let prog = w.program();
    for (pc, c) in m.iter().take(top) {
        println!(
            "misp {:#x} x{} {}",
            pc,
            c,
            prog.fetch(**pc).map(|i| i.to_string()).unwrap_or_default()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_overhead(args: &mut Args) -> cli::Result<ExitCode> {
    let workload = args.value("--workload")?.unwrap_or_else(|| "aifirf".into());
    let budget: u64 = args.parsed("--budget")?.unwrap_or(DEFAULT_BUDGET);
    let max_ratio: f64 = args.parsed("--max-ratio")?.unwrap_or(2.0);
    args.finish()?;

    let w = cli::workload(&workload)?;
    let trace = w.trace(budget);
    let cfg = SimConfig::default();
    let ring = (budget as usize).saturating_mul(8).max(1);

    // Min of three: the least noisy point estimate a cold CI box can give.
    let mut null_best = f64::INFINITY;
    let mut traced_best = f64::INFINITY;
    let mut events = 0u64;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        let o = run_scheme(&trace, SchemeKind::Dlvp, &cfg);
        null_best = null_best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(&o);

        let t1 = std::time::Instant::now();
        let (o, sink) = run_scheme_with(&trace, SchemeKind::Dlvp, &cfg, RingSink::new(ring), 0);
        let ev = sink.into_ring().drain();
        traced_best = traced_best.min(t1.elapsed().as_secs_f64());
        events = ev.len() as u64;
        std::hint::black_box((&o, &ev));
    }
    let ratio = if null_best > 0.0 {
        traced_best / null_best
    } else {
        1.0
    };
    println!(
        "{workload}: NullSink {:.3} ms, RingSink {:.3} ms ({events} events), ratio {ratio:.2}x (max {max_ratio:.2}x)",
        null_best * 1e3,
        traced_best * 1e3
    );
    if ratio > max_ratio {
        return Err(
            format!("tracing overhead {ratio:.2}x exceeds the {max_ratio:.2}x budget").into(),
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::main("obs", USAGE, |args| match args.shift().as_deref() {
        Some("run") => cmd_run(args),
        Some("record") => cmd_record(args),
        Some("stats") => cmd_stats(args),
        Some("replay") => cmd_replay(args),
        Some("misp") => cmd_misp(args),
        Some("overhead") => cmd_overhead(args),
        Some("--help" | "-h" | "help") => cli::usage(""),
        _ => cli::usage("missing subcommand"),
    })
}
