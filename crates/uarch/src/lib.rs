//! # lvp-uarch — trace-driven, cycle-level out-of-order core model
//!
//! The substrate standing in for the paper's proprietary cycle-accurate ARM
//! simulator (§4.2). It models the Table 4 baseline — 4-wide in-order
//! front-end, 8-wide OoO backend (2 load/store + 6 generic lanes),
//! ROB/IQ/LDQ/STQ of 224/97/72/56, 348 physical registers, 13-cycle
//! fetch-to-execute depth, TAGE/ITTAGE/RAS branch prediction, a store-set
//! memory dependence predictor, and the three-level memory hierarchy of
//! `lvp-mem` — and exposes the [`vp::VpScheme`] hook through which the
//! `dlvp` crate plugs PAP/CAP/VTAGE/DLVP.
//!
//! ```
//! use lvp_uarch::{simulate, NoVp};
//! let w = lvp_workloads::by_name("aifirf").unwrap();
//! let trace = w.trace(5_000);
//! let stats = simulate(&trace, NoVp);
//! assert!(stats.ipc() > 0.1);
//! ```

pub mod config;
pub mod core;
mod cycleq;
pub mod lanes;
pub mod mdp;
pub mod simconfig;
pub mod stats;
#[cfg(test)]
mod tests_model;
pub mod tier;
pub mod u64map;
pub mod vp;
pub mod vpe;

pub use crate::core::{simulate, Core};
pub use config::{BranchPredictorKind, CoreConfig, RecoveryMode};
pub use lanes::LaneTracker;
pub use lvp_obs::{EventRing, EventSink, NullSink, ObsEvent, RingSink, TierKind};
pub use mdp::{MdpConfig, StoreSets};
pub use simconfig::{
    AddrWidth, AllocPolicy, CapConfig, ConfigError, DlvpConfig, PapConfig, SampleSpec, SimConfig,
    VtageConfig, VtageFilter, VtageTargets,
};
pub use stats::{fmt_pct, SamplingStats, SimStats, StatsError};
pub use tier::{run_sampled, FunctionalTier, SampledRun, SimpleTier};
pub use u64map::{MulHasher, U64Map};
pub use vp::{
    ExecInfo, FetchCtx, FetchSlot, NoVp, OracleLoadVp, RenamePrediction, VpScheme, VpVerdict,
};
pub use vpe::{InjectOutcome, Vpe, VpeStats};
