//! The command-line front end every lvp-bench binary is built on: one flag
//! parser ([`Args`]), one result-to-exit-status mapping ([`main`]), one
//! telemetry dispatch ([`with_telemetry!`]) and one artifact writer
//! ([`write()`]).
//!
//! The contract the tools share: results go to stdout or to files, progress
//! and diagnostics to stderr. Exit status 0 is success, 1 a failed run
//! (`tool: message` on stderr), 2 a usage error (the message and the
//! tool's usage text on stderr, nothing on stdout).

use crate::runner::default_jobs;
use crate::telemetry::Manifest;
use crate::SchemeKind;
use lvp_json::ToJson;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

pub use lvp_obs::{NullPhases, PhaseRecorder};

/// Why a tool stopped short of success.
#[derive(Debug, PartialEq)]
pub enum Error {
    /// A bad command line: exit status 2.
    Usage(String),
    /// `--help`: the usage text goes to stdout, exit status 0.
    Help,
    /// The run itself failed: exit status 1.
    Failed(String),
}

impl From<String> for Error {
    fn from(msg: String) -> Error {
        Error::Failed(msg)
    }
}

impl From<lvp_store::StoreError> for Error {
    fn from(e: lvp_store::StoreError) -> Error {
        Error::Failed(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, Error>;

/// A usage error.
pub fn usage<T>(msg: impl Into<String>) -> Result<T> {
    Err(Error::Usage(msg.into()))
}

/// Runs a tool's body on the process arguments and maps its result to the
/// exit status. `usage_text` ends with a newline.
pub fn main(
    tool: &str,
    usage_text: &str,
    run: impl FnOnce(&mut Args) -> Result<ExitCode>,
) -> ExitCode {
    match run(&mut Args::new(std::env::args().skip(1).collect())) {
        Ok(code) => code,
        Err(Error::Help) => {
            print!("{usage_text}");
            ExitCode::SUCCESS
        }
        Err(Error::Usage(msg)) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{usage_text}");
            ExitCode::from(2)
        }
        Err(Error::Failed(msg)) => {
            eprintln!("{tool}: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// A command line, consumed flag by flag. Each accessor removes what it
/// matches, so flags may come in any order; a repeated flag keeps its last
/// value. [`Args::finish`] (or [`Args::positionals`]) then rejects whatever
/// no accessor claimed.
#[derive(Debug)]
pub struct Args {
    argv: Vec<String>,
}

impl Args {
    fn new(argv: Vec<String>) -> Args {
        Args { argv }
    }

    /// Removes and returns the first argument (a subcommand).
    pub fn shift(&mut self) -> Option<String> {
        (!self.argv.is_empty()).then(|| self.argv.remove(0))
    }

    /// `flag VALUE`.
    pub fn value(&mut self, flag: &str) -> Result<Option<String>> {
        let mut value = None;
        while let Some(i) = self.argv.iter().position(|a| a == flag) {
            if i + 1 == self.argv.len() {
                return usage(format!("{flag} needs a value"));
            }
            value = Some(self.argv.remove(i + 1));
            self.argv.remove(i);
        }
        Ok(value)
    }

    /// `flag VALUE`, parsed.
    pub fn parsed<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>> {
        match self.value(flag)? {
            None => Ok(None),
            Some(v) => match v.parse() {
                Ok(parsed) => Ok(Some(parsed)),
                Err(_) => usage(format!("{flag}: cannot parse '{v}'")),
            },
        }
    }

    /// `flag PATH`.
    pub fn path(&mut self, flag: &str) -> Result<Option<PathBuf>> {
        Ok(self.value(flag)?.map(PathBuf::from))
    }

    /// `flag a,b,c`, empty items dropped.
    pub fn list(&mut self, flag: &str) -> Result<Option<Vec<String>>> {
        Ok(self.value(flag)?.map(|v| {
            v.split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect()
        }))
    }

    /// A boolean `flag`: whether it was given.
    pub fn flag(&mut self, flag: &str) -> bool {
        let before = self.argv.len();
        self.argv.retain(|a| a != flag);
        self.argv.len() != before
    }

    /// `--jobs N`: worker threads, [`default_jobs`] when absent, at least 1.
    pub fn jobs(&mut self) -> Result<usize> {
        match self.parsed("--jobs")? {
            None => Ok(default_jobs()),
            Some(0) => usage("--jobs must be >= 1"),
            Some(n) => Ok(n),
        }
    }

    /// `--store DIR`: the content-addressed result store.
    pub fn store(&mut self) -> Result<Option<String>> {
        self.value("--store")
    }

    /// `--telemetry PATH` and `--host-trace PATH`.
    pub fn telemetry(&mut self) -> Result<Telemetry> {
        Ok(Telemetry {
            manifest: self.path("--telemetry")?,
            host_trace: self.path("--host-trace")?,
        })
    }

    /// `--quiet`: no progress lines on stderr.
    pub fn quiet(&mut self) -> bool {
        self.flag("--quiet")
    }

    /// `--help` or `-h`: stop with [`Error::Help`].
    pub fn help(&mut self) -> Result<()> {
        if self.flag("--help") | self.flag("-h") {
            return Err(Error::Help);
        }
        Ok(())
    }

    /// Takes the remaining arguments as positionals; a flag among them is
    /// unknown.
    pub fn positionals(&mut self) -> Result<Vec<String>> {
        if let Some(flag) = self.argv.iter().find(|a| a.starts_with('-')) {
            return usage(format!("unknown flag '{flag}'"));
        }
        Ok(std::mem::take(&mut self.argv))
    }

    /// Rejects any argument no accessor claimed.
    pub fn finish(&self) -> Result<()> {
        match self.argv.first() {
            Some(stray) => usage(format!("unknown argument '{stray}'")),
            None => Ok(()),
        }
    }
}

/// Where a run's host telemetry goes. With neither file requested the run
/// records nothing (see [`with_telemetry!`]).
#[derive(Debug)]
pub struct Telemetry {
    /// `--telemetry`: the run manifest.
    manifest: Option<PathBuf>,
    /// `--host-trace`: a Chrome trace of the host phases, one lane per
    /// worker.
    host_trace: Option<PathBuf>,
}

impl Telemetry {
    pub fn enabled(&self) -> bool {
        self.manifest.is_some() || self.host_trace.is_some()
    }

    /// Writes the requested files for a recorded run.
    pub fn write(&self, manifest: &Manifest) -> std::result::Result<(), String> {
        if let Some(path) = &self.manifest {
            write(path, &(manifest.to_json().pretty() + "\n"))?;
            eprintln!(
                "{}: wrote telemetry manifest {}",
                manifest.tool,
                path.display()
            );
        }
        if let Some(path) = &self.host_trace {
            let trace = lvp_obs::host_trace(&manifest.phases);
            write(path, &(trace.pretty() + "\n"))?;
            eprintln!("{}: wrote host trace {}", manifest.tool, path.display());
        }
        Ok(())
    }
}

/// Runs `$run` with `$phases` bound to the phase sink `$telemetry` asks
/// for. With telemetry off that is [`NullPhases`], so the recording
/// compiles out of the run; otherwise a [`PhaseRecorder`], after which the
/// manifest `$manifest` builds from the finished recorder `$rec` is
/// written. Evaluates to `Result<_, String>`; the run's result is identical
/// either way.
#[macro_export]
macro_rules! with_telemetry {
    ($telemetry:expr, |$phases:ident| $run:expr, |$rec:ident| $manifest:expr $(,)?) => {{
        let telemetry: &$crate::cli::Telemetry = &$telemetry;
        if telemetry.enabled() {
            let recorder = $crate::cli::PhaseRecorder::new();
            let out = {
                let $phases = &recorder;
                $run
            };
            let $rec = &recorder;
            telemetry.write(&$manifest).map(|()| out)
        } else {
            let $phases = &$crate::cli::NullPhases;
            Ok($run)
        }
    }};
}
pub use crate::with_telemetry;

/// Writes an artifact's exact bytes to `path`, creating its parent
/// directory first.
pub fn write(path: &Path, bytes: &str) -> std::result::Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The workload catalogue, one `  name [suite] description` line each.
pub fn workload_table() -> String {
    lvp_workloads::all()
        .iter()
        .map(|w| format!("  {:<12} [{}] {}\n", w.name, w.suite, w.description))
        .collect()
}

/// Looks up a workload; an unknown name is a usage error that lists the
/// catalogue.
pub fn workload(name: &str) -> Result<lvp_workloads::Workload> {
    lvp_workloads::by_name(name).ok_or_else(|| {
        Error::Usage(format!(
            "unknown workload '{name}'; available:\n{}",
            workload_table()
        ))
    })
}

/// Looks up a scheme by name; an unknown name is a usage error.
pub fn scheme(name: &str) -> Result<SchemeKind> {
    SchemeKind::from_name(name).ok_or_else(|| Error::Usage(format!("unknown scheme '{name}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::new(line.split_whitespace().map(str::to_string).collect())
    }

    #[test]
    fn values_are_taken_in_any_order_and_the_last_repeat_wins() {
        let mut a = args("--quiet --budget 10 --out a.json --budget 20");
        assert_eq!(a.parsed::<u64>("--budget"), Ok(Some(20)));
        assert_eq!(a.path("--out"), Ok(Some(PathBuf::from("a.json"))));
        assert_eq!(a.value("--absent"), Ok(None));
        assert!(a.quiet());
        assert!(!a.quiet(), "a taken flag is gone");
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn missing_values_unparsable_numbers_and_strays_are_usage_errors() {
        assert!(matches!(
            args("--budget").value("--budget"),
            Err(Error::Usage(_))
        ));
        assert!(matches!(
            args("--budget ten").parsed::<u64>("--budget"),
            Err(Error::Usage(_))
        ));
        let mut a = args("--budget 5 --bogus");
        assert_eq!(a.parsed::<u64>("--budget"), Ok(Some(5)));
        assert_eq!(a.finish(), usage("unknown argument '--bogus'"));
    }

    #[test]
    fn lists_drop_empty_items() {
        let mut a = args("--workloads aifirf,,nat,");
        assert_eq!(
            a.list("--workloads"),
            Ok(Some(vec!["aifirf".to_string(), "nat".to_string()]))
        );
    }

    #[test]
    fn jobs_must_be_positive() {
        assert_eq!(args("--jobs 3").jobs(), Ok(3));
        assert_eq!(args("--jobs 0").jobs(), usage("--jobs must be >= 1"));
        assert!(matches!(args("--jobs -1").jobs(), Err(Error::Usage(_))));
        assert!(args("").jobs().is_ok_and(|n| n >= 1));
    }

    #[test]
    fn telemetry_is_enabled_by_either_output() {
        assert!(!args("").telemetry().is_ok_and(|t| t.enabled()));
        assert!(args("--telemetry m.json")
            .telemetry()
            .is_ok_and(|t| t.enabled()));
        assert!(args("--host-trace h.json")
            .telemetry()
            .is_ok_and(|t| t.enabled()));
    }

    #[test]
    fn positionals_reject_flags_and_help_stops() {
        let mut a = args("--budget 5 fig01 fig02");
        assert_eq!(a.parsed::<u64>("--budget"), Ok(Some(5)));
        assert_eq!(
            a.positionals(),
            Ok(vec!["fig01".to_string(), "fig02".to_string()])
        );
        assert_eq!(
            args("fig01 --bogus").positionals(),
            usage("unknown flag '--bogus'")
        );
        assert_eq!(args("-h").help(), Err(Error::Help));
        assert_eq!(args("fig01").help(), Ok(()));
    }

    #[test]
    fn shift_takes_the_subcommand() {
        let mut a = args("run --budget 5");
        assert_eq!(a.shift().as_deref(), Some("run"));
        assert_eq!(a.parsed::<u64>("--budget"), Ok(Some(5)));
        assert_eq!(a.shift(), None);
    }

    #[test]
    fn write_creates_the_parent_directory_and_keeps_the_bytes() {
        let dir = std::env::temp_dir().join(format!("lvp-cli-write-{}", std::process::id()));
        let path = dir.join("nested").join("a.json");
        write(&path, "{}\n").expect("write");
        assert_eq!(std::fs::read_to_string(&path).expect("read back"), "{}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_workloads_and_schemes_are_usage_errors() {
        assert!(workload("aifirf").is_ok());
        assert!(matches!(workload("nope"), Err(Error::Usage(m)) if m.contains("aifirf")));
        assert_eq!(scheme("dlvp"), Ok(SchemeKind::Dlvp));
        assert_eq!(scheme("nope"), usage("unknown scheme 'nope'"));
    }
}
