//! # lvp-trace — dynamic execution traces and offline analytics
//!
//! The functional emulator (`lvp-emu`) produces a [`Trace`] — an ordered
//! sequence of [`TraceRecord`]s carrying everything the timing model and the
//! predictors need: PC, the decoded instruction, the next PC (branch
//! outcome), the effective address and the loaded/stored values.
//!
//! Besides the containers, this crate hosts the *trace-only* analyses from
//! the paper's motivation section, each a consumer fed one record at a
//! time, so a record stream is profiled without being stored:
//!
//! * [`conflict::ConflictProfiler`] — Figure 1: the fraction of dynamic loads
//!   that consume a value produced by a store since the prior dynamic
//!   instance of that load, split into committed vs. in-flight stores.
//! * [`repeat::RepeatProfiler`] — Figure 2: the breakdown of dynamic loads by
//!   how many times their address (vs. their value) has repeated, which
//!   motivates address prediction's lower confidence requirement.

pub mod conflict;
pub mod io;
pub mod record;
pub mod repeat;

pub use conflict::{ConflictProfile, ConflictProfiler};
pub use io::{read_trace, write_trace, TraceIoError, TraceWriter};
pub use record::{Fingerprinter, LoadView, Trace, TraceRecord, ValueBuf, MAX_CHUNKS};
pub use repeat::{RepeatProfile, RepeatProfiler};
