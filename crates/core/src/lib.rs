//! # dlvp — Decoupled Load Value Prediction via Path-based Address Prediction
//!
//! A from-scratch reproduction of the mechanisms of
//! *Sheikh, Cain & Damodaran, "Load Value Prediction via Path-based Address
//! Prediction: Avoiding Mispredictions due to Conflicting Stores"*
//! (MICRO 2017):
//!
//! * [`Pap`] — **Path-based Address Prediction**: an Address Prediction
//!   Table indexed/tagged by load PC ⊕ folded [`path::LoadPathHistory`],
//!   with 2-bit forward-probabilistic confidence ([`fpc::Fpc`]) that
//!   saturates after ~8 address observations;
//! * [`Dlvp`] — the **DLVP microarchitecture**: address prediction in
//!   fetch stage 1, a [`Paq`] of predicted addresses probed opportunistically
//!   on load/store-lane bubbles, value injection at rename, prefetch on
//!   probe miss, way prediction, and the [`Lscd`] in-flight-store conflict
//!   filter;
//! * [`Cap`] — the Correlated Address Predictor baseline (Bekerman et al.);
//! * [`Vtage`] — the VTAGE value-prediction baseline with the paper's
//!   ISA-specific opcode filters (vanilla/dynamic/static × loads-only/all);
//! * [`Tournament`] — the DLVP+VTAGE chooser combination of §5.2.3.
//!
//! All schemes plug into the cycle-level core model of `lvp-uarch` through
//! its `VpScheme` trait.
//!
//! ```
//! use lvp_uarch::{simulate, NoVp};
//!
//! let trace = lvp_workloads::by_name("aifirf").unwrap().trace(20_000);
//! let baseline = simulate(&trace, NoVp);
//! let with_dlvp = simulate(&trace, dlvp::dlvp_default());
//! assert!(with_dlvp.speedup_over(&baseline) > 1.0);
//! ```

pub mod addr;
pub mod cap;
pub mod dvtage;
pub mod engine;
pub mod fpc;
pub mod lscd;
pub mod pap;
pub mod paq;
pub mod path;
pub mod registry;
pub mod slice;
pub mod tournament;
pub mod vtage;

pub use addr::{evaluate_standalone, AddrEval, AddrPrediction, AddressPredictor};
pub use cap::{Cap, CapConfig};
pub use dvtage::{Dvtage, DvtageConfig};
pub use engine::{dlvp_default, dlvp_with_cap, Dlvp, DlvpConfig, DlvpCounters, PcOutcome};
pub use fpc::Fpc;
pub use lscd::Lscd;
pub use pap::{AddrWidth, AllocPolicy, AptLayout, Pap, PapConfig};
pub use paq::{Paq, PaqEntry, PaqStats};
pub use path::LoadPathHistory;
pub use registry::SchemeKind;
pub use slice::DlvpSimSlice;
pub use tournament::{Tournament, TournamentCounters};
pub use vtage::{Vtage, VtageConfig, VtageFilter, VtageTargets};
