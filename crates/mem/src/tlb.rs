//! Data TLB: 512-entry, 8-way set-associative over 4 KiB pages (paper
//! Table 4), with a fixed page-walk penalty on miss.

use crate::cache::{Cache, CacheConfig};

/// TLB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    pub entries: usize,
    pub ways: usize,
    pub page_bytes: u64,
    /// Cycles added to an access on a TLB miss (page-table walk).
    pub miss_penalty: u32,
}

impl Default for TlbConfig {
    fn default() -> TlbConfig {
        TlbConfig {
            entries: 512,
            ways: 8,
            page_bytes: 4096,
            miss_penalty: 30,
        }
    }
}

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    pub accesses: u64,
    pub misses: u64,
}

impl TlbStats {
    /// Adds `other`'s counters into `self` (sampled-window aggregation).
    pub fn accumulate(&mut self, other: &TlbStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
    }
}

/// A set-associative TLB. Its entries behave exactly like a true-LRU
/// cache whose blocks are pages (a translation is touched once per access
/// and filled on a miss), so they are one: a [`Cache`] of `entries`
/// page-sized blocks.
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    pages: Cache,
}

impl Tlb {
    /// Builds an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not divisible into a power-of-two set count,
    /// or the page size is not a power of two.
    pub fn new(cfg: TlbConfig) -> Tlb {
        Tlb {
            cfg,
            pages: Cache::new(CacheConfig {
                size_bytes: cfg.entries as u64 * cfg.page_bytes,
                ways: cfg.ways,
                block_bytes: cfg.page_bytes,
                hit_latency: 0,
            }),
        }
    }

    /// The configuration.
    pub fn config(&self) -> TlbConfig {
        self.cfg
    }

    /// Accumulated counters.
    pub fn stats(&self) -> TlbStats {
        let c = self.pages.stats();
        TlbStats {
            accesses: c.accesses,
            misses: c.misses,
        }
    }

    /// Translates `addr`; returns the added latency (0 on hit, the walk
    /// penalty on miss) and fills on miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> u32 {
        if self.pages.access(addr).hit {
            0
        } else {
            self.cfg.miss_penalty
        }
    }

    /// Pure lookup (no fill, no stats) — used by tests.
    pub fn contains(&self, addr: u64) -> bool {
        self.pages.lookup(addr).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 8,
            ways: 2,
            page_bytes: 4096,
            miss_penalty: 30,
        })
    }

    #[test]
    fn miss_fills_then_hits() {
        let mut t = small();
        assert_eq!(t.access(0x1234), 30);
        assert_eq!(t.access(0x1ffc), 0, "same page");
        assert_eq!(t.access(0x2000), 30, "next page misses");
        assert_eq!(t.stats().misses, 2);
        assert_eq!(t.stats().accesses, 3);
    }

    #[test]
    fn lru_within_set() {
        let mut t = small(); // 4 sets, 2 ways; pages mapping to set 0: vpn 0,4,8
        t.access(0x0000); // vpn 0
        t.access(0x4000); // vpn 4
        t.access(0x0000); // touch vpn 0
        t.access(0x8000); // vpn 8 evicts vpn 4
        assert!(t.contains(0x0000));
        assert!(!t.contains(0x4000));
        assert!(t.contains(0x8000));
    }

    #[test]
    fn default_is_table4_shape() {
        let cfg = TlbConfig::default();
        assert_eq!(cfg.entries, 512);
        assert_eq!(cfg.ways, 8);
        let t = Tlb::new(cfg);
        assert_eq!(t.config().page_bytes, 4096);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Tlb::new(TlbConfig {
            entries: 6,
            ways: 2,
            page_bytes: 4096,
            miss_penalty: 1,
        });
    }

    #[test]
    #[should_panic(expected = "block size must be a power of two")]
    fn non_power_of_two_page_rejected() {
        let _ = Tlb::new(TlbConfig {
            page_bytes: 3000,
            ..TlbConfig::default()
        });
    }
}
