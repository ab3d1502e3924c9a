//! lvp-fuzz: seeded program synthesis and a differential oracle over the
//! whole predictor stack.
//!
//! The crate closes the loop the hand-written workloads cannot: instead of
//! a handful of curated kernels, it *generates* well-formed programs from a
//! declarative [`SynthProfile`] and a 64-bit seed, then holds every
//! predictor scheme to a set of cross-cutting invariants:
//!
//! 1. **Soundness** — the static analyzer's per-PC [`LoadClass`] verdicts
//!    must match what the synthesizer constructed, and the achieved class
//!    mix must sit within the profile's declared tolerance
//!    ([`oracle::soundness`]).
//! 2. **Differential execution** — every [`SchemeKind`] runs the same
//!    program; architectural counters must agree across schemes, traced and
//!    untraced runs must be byte-identical, and lvp-obs lifecycle reports
//!    must reconcile 1:1 with simulator statistics ([`oracle::check_serviced`]).
//! 3. **Alias discipline** — loads the analyzer proves conflict-free must
//!    never be squashed by a store under any scheme.
//!
//! Everything is deterministic: `(profile, seed)` fully determines the
//! program (via the in-repo xoshiro [`lvp_workloads::Prng`]), and campaign
//! reports over a seed range are byte-identical regardless of worker count.
//!
//! [`LoadClass`]: lvp_analysis::LoadClass
//! [`SchemeKind`]: dlvp::SchemeKind

pub mod campaign;
pub mod metamorph;
pub mod minimize;
pub mod oracle;
pub mod profile;
pub mod synth;

pub use campaign::{campaign_report, run_seed, run_seed_serviced, SeedOutcome};
pub use metamorph::{identity_map, rename_registers, rotate_layout};
pub use minimize::minimize;
pub use oracle::{Finding, OracleConfig};
pub use profile::SynthProfile;
pub use synth::{campaign_seed, plan, synthesize, LoadKind, ProgramSpec, SynthProgram};
