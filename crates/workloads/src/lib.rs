//! # lvp-workloads — the benchmark suite (paper Table 3 substitute)
//!
//! The paper evaluates on SPEC2K, SPEC2K6, EEMBC and a set of popular
//! applications (linpack, media player, browser and JavaScript benchmarks)
//! compiled for ARM. Those binaries (and the simpoints) are not available,
//! so this crate provides **synthetic kernels written in the `lvp-isa`
//! assembly**, each named after and modelled on the memory/branch behaviour
//! of its namesake:
//!
//! * `perlbmk` — a bytecode interpreter (indirect dispatch, loads feeding
//!   branches, stable interpreter state): the paper's 71%-speedup outlier;
//! * `mcf` — pointer chasing (poorly address-predictable);
//! * `libquantum`/`hmmer` — sweep-and-update kernels whose loads re-read
//!   locations written by *committed* stores (the Figure 1 conflict class);
//! * `aifirf` — FIR filter: perfectly repeatable addresses, changing values
//!   (favours DLVP); `nat` — table lookups with stable values (favours
//!   VTAGE);
//! * `linpack`/`idct` — LDP/VLD-heavy numeric kernels exposing the
//!   multi-destination-load pathology of §5.2.2;
//! * `bzip2` — large-footprint data-dependent indexing (TLB pressure,
//!   Fig 9); and so on.
//!
//! Each [`Workload`] builds a [`lvp_isa::Program`]; [`Workload::trace`]
//! runs it on the functional emulator for a dynamic-instruction budget.
//!
//! ```
//! let w = lvp_workloads::by_name("aifirf").unwrap();
//! let t = w.trace(5_000);
//! assert!(t.load_count() > 500);
//! ```

pub mod eembc;
pub mod eembc_aifirf;
pub mod eembc_auto;
pub mod js;
pub mod misc;
pub mod spec2k;
pub mod spec2k6;
pub mod spec_extra;
pub mod util;

pub use util::Prng;

use lvp_emu::{Emulator, Records};
use lvp_isa::Program;
use lvp_trace::Trace;
use std::fmt;

/// Which suite a workload stands in for (paper Table 3 grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    Spec2k,
    Spec2k6,
    Eembc,
    Javascript,
    Other,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Suite::Spec2k => "SPEC2K",
            Suite::Spec2k6 => "SPEC2K6",
            Suite::Eembc => "EEMBC",
            Suite::Javascript => "JS",
            Suite::Other => "other",
        };
        f.write_str(s)
    }
}

/// A named benchmark kernel.
#[derive(Clone)]
pub struct Workload {
    /// Paper benchmark this kernel is modelled on.
    pub name: &'static str,
    pub suite: Suite,
    /// One-line behavioural description.
    pub description: &'static str,
    builder: fn() -> Program,
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .finish()
    }
}

impl Workload {
    pub(crate) const fn new(
        name: &'static str,
        suite: Suite,
        description: &'static str,
        builder: fn() -> Program,
    ) -> Workload {
        Workload {
            name,
            suite,
            description,
            builder,
        }
    }

    /// Builds the program.
    pub fn program(&self) -> Program {
        (self.builder)()
    }

    /// Runs the kernel for up to `budget` dynamic instructions and returns
    /// the trace. Kernels loop indefinitely, so the budget decides trace
    /// length.
    pub fn trace(&self, budget: u64) -> Trace {
        Emulator::new(self.program()).run(budget).trace
    }

    /// Streams the records [`Workload::trace`] would hold, one at a time,
    /// without storing them.
    pub fn records(&self, budget: u64) -> Records {
        Emulator::new(self.program()).records(budget)
    }
}

/// All workloads, in suite order (the x-axis of the per-workload figures).
pub fn all() -> Vec<Workload> {
    let mut v = Vec::new();
    v.extend(spec2k::workloads());
    v.extend(spec2k6::workloads());
    v.extend(spec_extra::workloads());
    v.extend(eembc::workloads());
    v.extend(eembc_auto::workloads());
    v.extend(js::workloads());
    v.extend(misc::workloads());
    v
}

/// Finds a workload by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// The registry of kernel names, in suite order — the canonical enumeration
/// batch runners iterate (same order as [`all`]).
pub fn names() -> Vec<&'static str> {
    all().iter().map(|w| w.name).collect()
}

/// All workloads belonging to one suite.
pub fn by_suite(suite: Suite) -> Vec<Workload> {
    all().into_iter().filter(|w| w.suite == suite).collect()
}

/// The default per-workload dynamic instruction budget used by the
/// experiment harnesses (the paper uses 100M-instruction simpoints; we scale
/// down to keep the harnesses interactive — shapes, not absolute numbers).
pub const DEFAULT_BUDGET: u64 = 200_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_populated_and_unique() {
        let ws = all();
        assert!(ws.len() >= 20, "expected a broad suite, got {}", ws.len());
        let mut names: Vec<_> = ws.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ws.len(), "duplicate workload names");
    }

    #[test]
    fn by_name_finds_paper_highlights() {
        for name in [
            "perlbmk", "aifirf", "nat", "bzip2", "pdfjs", "gcc", "soplex", "avmshell", "h264ref",
            "linpack",
        ] {
            assert!(by_name(name).is_some(), "missing workload {name}");
        }
        assert!(by_name("does-not-exist").is_none());
    }

    #[test]
    fn every_workload_runs_and_loads() {
        for w in all() {
            let t = w.trace(20_000);
            assert!(
                t.len() >= 10_000,
                "{} produced a short trace ({})",
                w.name,
                t.len()
            );
            let loads = t.load_count();
            assert!(
                loads * 20 >= t.len(),
                "{}: too few loads ({loads}/{})",
                w.name,
                t.len()
            );
        }
    }

    #[test]
    fn names_registry_matches_all() {
        let ws = all();
        let ns = names();
        assert_eq!(ns.len(), ws.len());
        for (w, n) in ws.iter().zip(&ns) {
            assert_eq!(w.name, *n);
        }
        for s in [
            Suite::Spec2k,
            Suite::Spec2k6,
            Suite::Eembc,
            Suite::Javascript,
            Suite::Other,
        ] {
            for w in by_suite(s) {
                assert_eq!(w.suite, s);
            }
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let w = by_name("perlbmk").unwrap();
        let a = w.trace(5_000);
        let b = w.trace(5_000);
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn streamed_records_fingerprint_exactly_like_the_trace() {
        for w in all() {
            for budget in [1_000, 7_000] {
                let trace = w.trace(budget);
                let mut f = lvp_trace::Fingerprinter::new();
                let mut n = 0;
                for (i, rec) in w.records(budget).enumerate() {
                    assert_eq!(rec, trace.records()[i], "{}@{budget} record {i}", w.name);
                    f.push(&rec);
                    n += 1;
                }
                assert_eq!(n, trace.len(), "{}@{budget}", w.name);
                assert_eq!(f.finish(), trace.fingerprint(), "{}@{budget}", w.name);
            }
        }
    }
}
