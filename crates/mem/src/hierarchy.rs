//! The three-level memory hierarchy of paper Table 4, wired together with
//! the TLB and the stride prefetcher.
//!
//! Latency model: an access is served by the innermost level that hits, at
//! that level's access latency (L1D 2, L2 16, L3 32, memory 200 cycles),
//! plus the TLB walk penalty when the translation misses. Demand accesses
//! allocate in every level they traverse (inclusive fill).

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::prefetch::{StrideConfig, StridePrefetcher, StrideStats};
use crate::tlb::{Tlb, TlbConfig, TlbStats};

/// Hierarchy-wide configuration (defaults = paper Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    pub l1i: CacheConfig,
    pub l1d: CacheConfig,
    pub l2: CacheConfig,
    pub l3: CacheConfig,
    /// Main-memory access latency in cycles.
    pub memory_latency: u32,
    pub tlb: TlbConfig,
    pub prefetch: StrideConfig,
    /// Enable the baseline stride prefetcher.
    pub prefetch_enabled: bool,
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig {
                size_bytes: 64 << 10,
                ways: 4,
                block_bytes: 64,
                hit_latency: 1,
            },
            l1d: CacheConfig {
                size_bytes: 64 << 10,
                ways: 4,
                block_bytes: 64,
                hit_latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 512 << 10,
                ways: 8,
                block_bytes: 128,
                hit_latency: 16,
            },
            l3: CacheConfig {
                size_bytes: 8 << 20,
                ways: 16,
                block_bytes: 128,
                hit_latency: 32,
            },
            memory_latency: 200,
            tlb: TlbConfig::default(),
            prefetch: StrideConfig::default(),
            prefetch_enabled: true,
        }
    }
}

/// Where a demand access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    L1,
    L2,
    L3,
    Memory,
}

/// Outcome of a demand data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataAccess {
    /// Total latency in cycles including any TLB walk.
    pub latency: u32,
    pub served_by: ServedBy,
    /// Way the block occupies in L1D after the access.
    pub l1_way: usize,
    /// Whether the translation missed the TLB.
    pub tlb_miss: bool,
}

/// Outcome of a DLVP speculative probe of the L1D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// Whether the block is resident in L1D.
    pub hit: bool,
    /// Resident way on hit.
    pub way: Option<usize>,
    /// True when a way hint was supplied and it did not match the resident
    /// way (paper: "way misprediction ... almost never happens").
    pub way_mispredict: bool,
    /// Whether the probe's translation missed the TLB.
    pub tlb_miss: bool,
}

/// Aggregated hierarchy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    pub l1i: CacheStats,
    pub l1d: CacheStats,
    pub l2: CacheStats,
    pub l3: CacheStats,
    pub tlb: TlbStats,
    pub prefetch: StrideStats,
    /// Prefetches requested by DLVP probe misses.
    pub dlvp_prefetches: u64,
}

impl HierarchyStats {
    /// Adds `other`'s counters into `self` (sampled-window aggregation).
    pub fn accumulate(&mut self, other: &HierarchyStats) {
        self.l1i.accumulate(&other.l1i);
        self.l1d.accumulate(&other.l1d);
        self.l2.accumulate(&other.l2);
        self.l3.accumulate(&other.l3);
        self.tlb.accumulate(&other.tlb);
        self.prefetch.accumulate(&other.prefetch);
        self.dlvp_prefetches += other.dlvp_prefetches;
    }
}

/// The memory hierarchy.
#[derive(Debug)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    tlb: Tlb,
    prefetcher: StridePrefetcher,
    dlvp_prefetches: u64,
}

impl MemoryHierarchy {
    /// Builds an empty hierarchy.
    pub fn new(cfg: HierarchyConfig) -> MemoryHierarchy {
        MemoryHierarchy {
            cfg,
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            tlb: Tlb::new(cfg.tlb),
            prefetcher: StridePrefetcher::new(cfg.prefetch),
            dlvp_prefetches: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> HierarchyConfig {
        self.cfg
    }

    /// Instruction fetch for the block containing `pc`; returns latency.
    #[inline]
    pub fn fetch_inst(&mut self, pc: u64) -> u32 {
        let a = self.l1i.access(pc);
        if a.hit {
            return self.cfg.l1i.hit_latency;
        }
        if self.l2.access(pc).hit {
            return self.cfg.l2.hit_latency;
        }
        if self.l3.access(pc).hit {
            return self.cfg.l3.hit_latency;
        }
        self.cfg.memory_latency
    }

    /// Demand data access (load or store) by the instruction at `pc`.
    /// Trains the stride prefetcher for loads.
    #[inline]
    pub fn access_data(&mut self, pc: u64, addr: u64, is_load: bool) -> DataAccess {
        let walk = self.tlb.access(addr);
        let tlb_miss = walk > 0;
        let a1 = self.l1d.access(addr);
        let (latency, served_by) = if a1.hit {
            (self.cfg.l1d.hit_latency, ServedBy::L1)
        } else if self.l2.access(addr).hit {
            (self.cfg.l2.hit_latency, ServedBy::L2)
        } else if self.l3.access(addr).hit {
            (self.cfg.l3.hit_latency, ServedBy::L3)
        } else {
            (self.cfg.memory_latency, ServedBy::Memory)
        };
        if is_load && self.cfg.prefetch_enabled {
            if let Some(pf) = self.prefetcher.train(pc, addr) {
                self.fill_prefetch(pf);
            }
        }
        DataAccess {
            latency: latency + walk,
            served_by,
            l1_way: a1.way,
            tlb_miss,
        }
    }

    /// DLVP speculative probe: check the L1D (through the TLB, as the
    /// baseline L1 prefetcher path does). Never allocates a line. A way
    /// `hint` restricts the check to one way; the outcome still reports the
    /// true residency so callers can count way mispredictions.
    pub fn probe_l1d(&mut self, addr: u64, hint: Option<usize>) -> ProbeOutcome {
        let walk = self.tlb.access(addr);
        let way = self.l1d.probe(addr);
        let way_mispredict = match (hint, way) {
            (Some(h), Some(w)) => h != w,
            _ => false,
        };
        ProbeOutcome {
            hit: way.is_some(),
            way,
            way_mispredict,
            tlb_miss: walk > 0,
        }
    }

    /// [`MemoryHierarchy::probe_l1d`] with an observability record: emits
    /// one [`lvp_obs::ObsEvent::L1Probe`] describing the outcome when the
    /// sink is enabled. Cache state changes identically either way.
    pub fn probe_l1d_traced<K: lvp_obs::EventSink>(
        &mut self,
        seq: u64,
        cycle: u64,
        addr: u64,
        hint: Option<usize>,
        sink: &mut K,
    ) -> ProbeOutcome {
        let outcome = self.probe_l1d(addr, hint);
        if sink.enabled() {
            sink.emit(lvp_obs::ObsEvent::L1Probe {
                seq,
                addr,
                cycle,
                hit: outcome.hit,
                way_mispredict: outcome.way_mispredict,
                tlb_miss: outcome.tlb_miss,
            });
        }
        outcome
    }

    /// Issues a DLVP-generated prefetch for `addr` (on probe miss), filling
    /// the hierarchy as the baseline prefetch path does.
    pub fn dlvp_prefetch(&mut self, addr: u64) {
        self.dlvp_prefetches += 1;
        self.fill_prefetch(addr);
    }

    fn fill_prefetch(&mut self, addr: u64) {
        self.l3.prefetch_fill(addr);
        self.l2.prefetch_fill(addr);
        self.l1d.prefetch_fill(addr);
    }

    /// Current way of a resident L1D block (no side effects).
    pub fn l1d_way(&self, addr: u64) -> Option<usize> {
        self.l1d.lookup(addr)
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            l3: self.l3.stats(),
            tlb: self.tlb.stats(),
            prefetch: self.prefetcher.stats(),
            dlvp_prefetches: self.dlvp_prefetches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::default())
    }

    #[test]
    fn latency_ladder() {
        let mut m = h();
        let first = m.access_data(0x40, 0x1_0000, true);
        assert_eq!(first.served_by, ServedBy::Memory);
        assert_eq!(first.latency, 200 + m.config().tlb.miss_penalty);
        let second = m.access_data(0x40, 0x1_0000, true);
        assert_eq!(second.served_by, ServedBy::L1);
        assert_eq!(second.latency, 2);
    }

    #[test]
    fn l2_serves_after_l1_eviction() {
        let mut m = h();
        m.access_data(0x40, 0x1_0000, true);
        // Evict from 64KB 4-way L1: 5 conflicting blocks 64KB/4 = 16KB apart.
        for i in 1..=4 {
            m.access_data(0x40, 0x1_0000 + i * 16 * 1024, true);
        }
        let again = m.access_data(0x40, 0x1_0000, true);
        assert_eq!(again.served_by, ServedBy::L2);
    }

    #[test]
    fn probe_reports_residency_without_allocating() {
        let mut m = h();
        let p = m.probe_l1d(0x2_0000, None);
        assert!(!p.hit);
        assert_eq!(m.l1d_way(0x2_0000), None);
        m.access_data(0x40, 0x2_0000, true);
        let p2 = m.probe_l1d(0x2_0000, None);
        assert!(p2.hit);
        assert_eq!(p2.way, m.l1d_way(0x2_0000));
    }

    #[test]
    fn way_hint_mismatch_detected() {
        let mut m = h();
        m.access_data(0x40, 0x3_0000, true);
        let true_way = m.l1d_way(0x3_0000).unwrap();
        let wrong = (true_way + 1) % 4;
        let p = m.probe_l1d(0x3_0000, Some(wrong));
        assert!(p.hit && p.way_mispredict);
        let q = m.probe_l1d(0x3_0000, Some(true_way));
        assert!(q.hit && !q.way_mispredict);
    }

    #[test]
    fn dlvp_prefetch_fills_l1() {
        let mut m = h();
        m.dlvp_prefetch(0x4_0000);
        let a = m.access_data(0x40, 0x4_0000, true);
        assert_eq!(a.served_by, ServedBy::L1);
        assert_eq!(m.stats().dlvp_prefetches, 1);
    }

    #[test]
    fn stride_prefetcher_hides_misses() {
        let mut m = h();
        // Walk a 64B-strided stream; after training, blocks should be
        // prefetched ahead and hit in L1.
        let mut l1_hits_late = 0;
        for i in 0..64u64 {
            let a = m.access_data(0x80, 0x10_0000 + i * 64, true);
            if i > 8 && a.served_by == ServedBy::L1 {
                l1_hits_late += 1;
            }
        }
        assert!(
            l1_hits_late > 40,
            "prefetcher should cover the stream, got {l1_hits_late}"
        );
    }

    #[test]
    fn prefetch_can_be_disabled() {
        let cfg = HierarchyConfig {
            prefetch_enabled: false,
            ..Default::default()
        };
        let mut m = MemoryHierarchy::new(cfg);
        for i in 0..64u64 {
            m.access_data(0x80, 0x10_0000 + i * 64, true);
        }
        assert_eq!(m.stats().prefetch.prefetches, 0);
    }

    #[test]
    fn instruction_fetch_latencies() {
        let mut m = h();
        assert_eq!(m.fetch_inst(0x1000), 200);
        assert_eq!(m.fetch_inst(0x1000), 1);
        assert_eq!(m.fetch_inst(0x1004), 1, "same block");
    }
}
