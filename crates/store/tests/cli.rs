//! The `store` maintenance CLI: usage errors exit 2 with nothing on stdout;
//! a run on a real store exits 0.

use std::process::{Command, Output};

const STORE: &str = env!("CARGO_BIN_EXE_store");

fn run(args: &[&str]) -> Output {
    Command::new(STORE)
        .args(args)
        .output()
        .expect("run the store binary")
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &[][..],
        &["--bogus"],
        &["--dir", "d"],
        &["--dir", "d", "compact"],
        &["--dir", "d", "gc", "--max-entries", "ten"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "store {args:?}");
        assert!(out.stdout.is_empty(), "store {args:?} wrote to stdout");
    }
}

#[test]
fn stats_on_an_empty_store_succeeds() {
    let dir = std::env::temp_dir().join(format!("lvp-store-cli-{}", std::process::id()));
    let out = run(&["--dir", dir.to_str().expect("utf-8 path"), "stats"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"entries\": 0"));
    let _ = std::fs::remove_dir_all(&dir);
}
