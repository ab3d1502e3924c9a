//! # lvp-mem — memory hierarchy substrate for the DLVP reproduction
//!
//! Timing-only models of the paper's Table 4 memory system: split 64 KiB
//! 4-way L1s, a 512 KiB 8-way private L2, an 8 MiB 16-way shared L3,
//! 200-cycle memory, a 512-entry 8-way TLB and PC-indexed stride
//! prefetchers.
//!
//! Two aspects exist specifically for DLVP (paper §3.2.2):
//!
//! * [`MemoryHierarchy::probe_l1d`] — the non-allocating, way-hinted
//!   speculative probe DLVP uses to retrieve predicted values, sharing the
//!   baseline L1-prefetcher path;
//! * [`MemoryHierarchy::dlvp_prefetch`] — the prefetch generated when a
//!   probe misses.
//!
//! ```
//! use lvp_mem::{MemoryHierarchy, HierarchyConfig, ServedBy};
//!
//! let mut m = MemoryHierarchy::new(HierarchyConfig::default());
//! let miss = m.access_data(0x40, 0x8000, true);
//! assert_eq!(miss.served_by, ServedBy::Memory);
//! assert_eq!(m.access_data(0x40, 0x8000, true).served_by, ServedBy::L1);
//! ```

pub mod cache;
pub mod hierarchy;
mod json;
pub mod prefetch;
#[cfg(test)]
mod reference;
pub mod tlb;

pub use cache::{Access, Cache, CacheConfig, CacheStats};
pub use hierarchy::{
    DataAccess, HierarchyConfig, HierarchyStats, MemoryHierarchy, ProbeOutcome, ServedBy,
};
pub use prefetch::{StrideConfig, StridePrefetcher, StrideStats};
pub use tlb::{Tlb, TlbConfig, TlbStats};
