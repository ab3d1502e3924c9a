//! # lvp-branch — branch prediction substrate
//!
//! The paper's baseline core (Table 4) uses "state-of-art 32KB TAGE ... and
//! 32KB ITTAGE" predictors plus a 16-entry return address stack. This crate
//! provides:
//!
//! * [`Tage`] — conditional branch direction predictor (bimodal base table
//!   plus geometrically-growing tagged history tables);
//! * [`Ittage`] — indirect branch target predictor;
//! * [`Ras`] — return address stack;
//! * [`GlobalHistory`] — the global branch history register the core
//!   keeps once and that TAGE, gshare, ITTAGE and VTAGE hash into their
//!   table indices.
//!
//! ```
//! use lvp_branch::{GlobalHistory, Tage};
//! let (mut t, mut h) = (Tage::default_32kb(), GlobalHistory::new());
//! t.track_history(&mut h);
//! // A strongly-biased branch becomes predictable after a few outcomes.
//! for _ in 0..16 {
//!     let p = t.predict(0x400, &h);
//!     t.update(0x400, &h, true, p);
//!     h.push(true);
//! }
//! assert!(t.predict(0x400, &h).taken);
//! ```

pub mod btb;
pub mod gshare;
pub mod history;
pub mod ittage;
pub mod ras;
pub mod tage;

pub use btb::{Btb, BtbConfig};
pub use gshare::{Gshare, GshareConfig};
pub use history::{Fold, GlobalHistory};
pub use ittage::Ittage;
pub use ras::Ras;
pub use tage::{Tage, TagePrediction};
