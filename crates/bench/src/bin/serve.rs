//! `serve` — the long-running sim-as-a-service batch server.
//!
//! ```text
//! serve --queue DIR [--store DIR] [--jobs N] [--once] [--poll-ms MS]
//!       [--socket PATH] [--quiet]
//! ```
//!
//! Watches `DIR/new/` for batch request files (see `lvp_bench::serve` for
//! the queue protocol), claims them atomically, executes each batch behind
//! a shared [`SimService`], and streams JSONL responses with per-request
//! provenance into `DIR/done/`. By default the service is a process-local
//! memo — one warm server dedups every sweep farmed to it; `--store`
//! additionally persists results into the shared content-addressed store
//! so hits survive server restarts.
//!
//! * `--once` drains the pending backlog and exits (CI smoke tests).
//! * `--socket PATH` also answers batches over a Unix socket: one compact
//!   request line in, response lines out. A connection wakes the server at
//!   once; `--poll-ms` (default 50) paces only the queue scans.
//!
//! Submit work with `runner --client DIR` (byte-identical `matrix.json` to
//! a local run) or by dropping request files into the queue directly.

use lvp_bench::cli::{self, Args};
use lvp_bench::serve::{serve, ServeConfig};
use lvp_store::SimService;
use std::process::ExitCode;

const USAGE: &str = "\
usage: serve --queue DIR [--store DIR] [--jobs N] [--once] [--poll-ms MS]
             [--socket PATH] [--quiet]
";

fn main() -> ExitCode {
    cli::main("serve", USAGE, run)
}

fn run(args: &mut Args) -> cli::Result<ExitCode> {
    let queue = args.path("--queue")?;
    let store = args.store()?;
    let jobs = args.jobs()?;
    let poll_ms: u64 = args.parsed("--poll-ms")?.unwrap_or(50);
    let socket = args.path("--socket")?;
    let once = args.flag("--once");
    let quiet = args.quiet();
    args.finish()?;
    let Some(queue) = queue else {
        return cli::usage("--queue DIR is required");
    };

    // One warm memo per server; --store makes hits durable across restarts.
    let service = match store.as_deref() {
        Some(dir) => SimService::open(dir)?,
        None => SimService::in_memory(),
    };
    let cfg = ServeConfig {
        queue,
        workers: jobs,
        once,
        poll_ms,
        socket,
        quiet,
    };
    if !quiet {
        eprintln!(
            "serve: queue {} ({} workers{}{})",
            cfg.queue.display(),
            cfg.workers,
            if store.is_some() {
                ", persistent store"
            } else {
                ", in-memory"
            },
            if once { ", once" } else { "" },
        );
    }
    let stats = serve(&cfg, &service)?;
    let c = service.counters();
    println!(
        "serve: {} batches, {} jobs ({} errors), streamed {}; store hits {} misses {} writes {} deduped {}",
        stats.batches,
        stats.jobs,
        stats.errors,
        stats.streamed,
        c.hits,
        c.misses,
        c.writes,
        c.deduped
    );
    Ok(if stats.errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
