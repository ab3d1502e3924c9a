//! The shared command-line contract, driven through the built binaries:
//! a usage error exits 2 with nothing on stdout, `--list` exits 0, and the
//! flag combinations each tool used to mishandle are rejected.

use std::path::PathBuf;
use std::process::{Command, Output};

const FIGS: &str = env!("CARGO_BIN_EXE_figs");
const RUNNER: &str = env!("CARGO_BIN_EXE_runner");
const ANALYZE: &str = env!("CARGO_BIN_EXE_analyze");
const FUZZ: &str = env!("CARGO_BIN_EXE_fuzz");
const BENCH: &str = env!("CARGO_BIN_EXE_bench");
const OBS: &str = env!("CARGO_BIN_EXE_obs");
const SERVE: &str = env!("CARGO_BIN_EXE_serve");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?}: stderr {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stdout.is_empty(),
        "{bin} {args:?} wrote to stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(!out.stderr.is_empty(), "{bin} {args:?}: no usage message");
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lvp-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn unknown_flags_missing_values_and_bad_numbers_exit_2() {
    let cases: &[(&str, &[&str])] = &[
        (FIGS, &["--bogus"]),
        (FIGS, &["--budget"]),
        (FIGS, &["--budget", "ten"]),
        (FIGS, &["nope"]),
        (RUNNER, &["--bogus"]),
        (RUNNER, &["--out"]),
        (RUNNER, &["--budget", "ten"]),
        (RUNNER, &["--jobs", "0"]),
        (RUNNER, &["--schemes", "nope"]),
        (ANALYZE, &["--bogus"]),
        (ANALYZE, &["--out"]),
        (ANALYZE, &["--budget", "ten"]),
        (ANALYZE, &["--workloads", "nope"]),
        (FUZZ, &["--bogus"]),
        (FUZZ, &["--seeds"]),
        (FUZZ, &["--seeds", "ten"]),
        (FUZZ, &["--jobs", "0"]),
        (BENCH, &["--bogus"]),
        (BENCH, &["--samples"]),
        (BENCH, &["--samples", "ten"]),
        (BENCH, &["--list", "--bogus"]),
        (OBS, &[]),
        (OBS, &["run", "--bogus"]),
        (OBS, &["run", "--budget"]),
        (OBS, &["run", "--budget", "ten"]),
        (OBS, &["misp", "--workload", "nope"]),
        (SERVE, &["--bogus"]),
        (SERVE, &["--queue"]),
        (SERVE, &["--queue", "q", "--poll-ms", "ten"]),
        (SERVE, &["--quiet"]),
    ];
    for (bin, args) in cases {
        assert_usage_error(bin, args);
    }
}

#[test]
fn list_exits_0_with_a_listing() {
    for bin in [FIGS, RUNNER, ANALYZE, FUZZ, BENCH] {
        let out = run(bin, &["--list"]);
        assert_eq!(out.status.code(), Some(0), "{bin} --list");
        assert!(!out.stdout.is_empty(), "{bin} --list printed nothing");
    }
    let runner = String::from_utf8(run(RUNNER, &["--list"]).stdout).expect("utf-8");
    let analyze = String::from_utf8(run(ANALYZE, &["--list"]).stdout).expect("utf-8");
    assert!(runner.starts_with("workloads:\n  perlbmk "));
    assert!(
        runner.starts_with(&analyze),
        "runner and analyze list the same workload table"
    );
}

#[test]
fn help_prints_usage_to_stdout_where_supported() {
    for bin in [FIGS, ANALYZE] {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin} --help");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: "));
    }
}

#[test]
fn figs_rejects_zero_jobs() {
    let dir = scratch("figs-jobs0");
    let out_dir = dir.to_str().expect("utf-8 path");
    let manifest = dir.join("manifest.json");
    assert_usage_error(
        FIGS,
        &[
            "fig06_comparison",
            "--budget",
            "1000",
            "--jobs",
            "0",
            "--out-dir",
            out_dir,
            "--telemetry",
            manifest.to_str().expect("utf-8 path"),
            "--quiet",
        ],
    );
    assert!(!manifest.exists(), "a rejected run wrote a manifest");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_rejects_an_overflowing_seed_range() {
    let dir = scratch("fuzz-overflow");
    let out = dir.join("corpus.json");
    assert_usage_error(
        FUZZ,
        &[
            "--seed-base",
            "18446744073709551615",
            "--seeds",
            "1",
            "--out",
            out.to_str().expect("utf-8 path"),
            "--quiet",
        ],
    );
    assert!(!out.exists(), "an overflowing campaign wrote a report");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runner_client_rejects_host_telemetry() {
    let dir = scratch("runner-client");
    let queue = dir.join("queue");
    let manifest = dir.join("manifest.json");
    for flag in ["--telemetry", "--host-trace"] {
        assert_usage_error(
            RUNNER,
            &[
                "--client",
                queue.to_str().expect("utf-8 path"),
                "--client-timeout",
                "1",
                "--workloads",
                "aifirf",
                "--schemes",
                "baseline",
                "--budget",
                "1000",
                "--out",
                dir.join("matrix.json").to_str().expect("utf-8 path"),
                flag,
                manifest.to_str().expect("utf-8 path"),
                "--quiet",
            ],
        );
        assert!(!manifest.exists(), "{flag}: a rejected run wrote telemetry");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runner_rejects_a_budget_with_no_detail_window_before_running() {
    let dir = scratch("runner-no-detail");
    let out = dir.join("matrix.json");
    assert_usage_error(
        RUNNER,
        &[
            "--workloads",
            "aifirf",
            "--budget",
            "10000",
            "--sample",
            "20000:100:500:1000",
            "--out",
            out.to_str().expect("utf-8 path"),
            "--quiet",
        ],
    );
    assert!(!out.exists(), "a rejected sampled run wrote results");
    let _ = std::fs::remove_dir_all(&dir);
}
