//! Maintenance CLI for an on-disk result store.
//!
//! ```text
//! store --dir DIR stats                      # entry/byte/shard counts
//! store --dir DIR verify                     # re-check every entry (exit 1 on corruption)
//! store --dir DIR gc [--max-entries N]       # drop corrupt entries, evict oldest beyond N
//! ```

use lvp_json::{Json, ToJson};
use lvp_store::Store;
use std::process::ExitCode;

/// A usage error: exit status 2, as for every tool in the workspace.
fn usage() -> ExitCode {
    eprintln!("usage: store --dir DIR <stats|verify|gc> [--max-entries N]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut dir: Option<String> = None;
    let mut command: Option<String> = None;
    let mut max_entries: Option<u64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => dir = args.next(),
            "--max-entries" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => max_entries = Some(n),
                _ => return usage(),
            },
            "stats" | "verify" | "gc" if command.is_none() => command = Some(arg),
            _ => return usage(),
        }
    }
    let (Some(dir), Some(command)) = (dir, command) else {
        return usage();
    };
    let store = match Store::open(&dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("store: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "stats" => store.stats().map(|s| (s.to_json(), true)),
        "verify" => store.verify().map(|r| {
            let corrupt: Vec<Json> = r
                .corrupt
                .iter()
                .map(|(key, reason)| {
                    Json::obj([
                        ("key", Json::Str(key.clone())),
                        ("reason", Json::Str(reason.clone())),
                    ])
                })
                .collect();
            let healthy = corrupt.is_empty();
            (
                Json::obj([("ok", Json::U64(r.ok)), ("corrupt", Json::Array(corrupt))]),
                healthy,
            )
        }),
        "gc" => store.gc(max_entries).map(|r| (r.to_json(), true)),
        _ => return usage(),
    };
    match result {
        Ok((doc, healthy)) => {
            print!("{}", doc.pretty());
            if healthy {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("store: {e}");
            ExitCode::FAILURE
        }
    }
}
