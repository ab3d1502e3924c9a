//! Set-associative cache with true-LRU replacement and way tracking.
//!
//! The cache is a *timing* structure: it tracks which blocks are resident
//! and in which way, not their data (data comes from the functional trace).
//! Way identity matters because DLVP's APT stores a predicted way to cut
//! probe energy (paper §3.2.2, "Power Optimization"); a block that is
//! evicted and refilled may land in a different way, which is the paper's
//! way-misprediction case.

/// Cache geometry and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Block (line) size in bytes.
    pub block_bytes: u64,
    /// Latency of a hit, in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two set count ≥ 1.
    pub fn sets(&self) -> u64 {
        let sets = self.size_bytes / (self.ways as u64 * self.block_bytes);
        assert!(
            sets >= 1 && sets.is_power_of_two(),
            "set count must be a power of two"
        );
        sets
    }
}

/// One way of a set. `lru` is the tick of the last touch; 0 marks an
/// invalid way (every touch stamps a tick ≥ 1), so the smallest `lru` in a
/// set is its victim: the first invalid way, else the true-LRU one.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    lru: u64,
}

impl Line {
    #[inline]
    fn holds(&self, tag: u64) -> bool {
        self.lru != 0 && self.tag == tag
    }
}

/// Counters exported for the energy model and the statistics blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
    /// Non-allocating probes (DLVP speculative probes).
    pub probes: u64,
    pub probe_hits: u64,
    /// Lines brought in by prefetch.
    pub prefetch_fills: u64,
}

impl CacheStats {
    /// Adds `other`'s counters into `self` (sampled-window aggregation).
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.probes += other.probes;
        self.probe_hits += other.probe_hits;
        self.prefetch_fills += other.prefetch_fills;
    }
}

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    pub hit: bool,
    /// Way the block resides in after the access (filled on miss).
    pub way: usize,
}

/// A single cache level: one set-major array of lines (set `s` is
/// `lines[s * ways..][..ways]`), indexed by shift and mask.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    ways: usize,
    block_shift: u32,
    set_mask: u64,
    set_bits: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the block size or the set count is not a power of two.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(
            cfg.block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        let sets = cfg.sets();
        Cache {
            cfg,
            lines: vec![Line::default(); sets as usize * cfg.ways],
            ways: cfg.ways,
            block_shift: cfg.block_bytes.trailing_zeros(),
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The first line of `addr`'s set and the block's tag.
    #[inline]
    fn base_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.block_shift;
        (
            (block & self.set_mask) as usize * self.ways,
            block >> self.set_bits,
        )
    }

    /// One pass over the set: `Ok(way)` when `tag` is resident, else
    /// `Err(victim)`, the smallest `lru` (first on a tie, so the first
    /// invalid way when there is one).
    #[inline]
    fn find_or_victim(&self, base: usize, tag: u64) -> Result<usize, usize> {
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (w, l) in self.lines[base..base + self.ways].iter().enumerate() {
            if l.holds(tag) {
                return Ok(w);
            }
            if l.lru < oldest {
                oldest = l.lru;
                victim = w;
            }
        }
        Err(victim)
    }

    /// Stamps `base + way` with `tag` and a fresh tick.
    #[inline]
    fn touch(&mut self, base: usize, way: usize, tag: u64) {
        self.tick += 1;
        self.lines[base + way] = Line {
            tag,
            lru: self.tick,
        };
    }

    /// Demand access: looks up `addr`, allocating (LRU) on miss. Returns
    /// whether it hit and the resident way.
    #[inline]
    pub fn access(&mut self, addr: u64) -> Access {
        self.stats.accesses += 1;
        let (base, tag) = self.base_tag(addr);
        let (hit, way) = match self.find_or_victim(base, tag) {
            Ok(way) => {
                self.stats.hits += 1;
                (true, way)
            }
            Err(victim) => {
                self.stats.misses += 1;
                (false, victim)
            }
        };
        self.touch(base, way, tag);
        Access { hit, way }
    }

    /// Non-allocating probe (used for DLVP speculative cache reads).
    /// Returns the resident way on hit. Updates LRU on hit — the probe is a
    /// real read of the data array.
    pub fn probe(&mut self, addr: u64) -> Option<usize> {
        self.stats.probes += 1;
        let (base, tag) = self.base_tag(addr);
        let way = self.find_or_victim(base, tag).ok();
        if let Some(w) = way {
            self.stats.probe_hits += 1;
            self.touch(base, w, tag);
        }
        way
    }

    /// Pure lookup with no statistics or LRU effect (way-prediction check,
    /// test assertions).
    pub fn lookup(&self, addr: u64) -> Option<usize> {
        let (base, tag) = self.base_tag(addr);
        self.find_or_victim(base, tag).ok()
    }

    /// Fills `addr` without counting a demand access (prefetch fill). If the
    /// block is already resident this is a no-op. Returns true if a new line
    /// was brought in.
    pub fn prefetch_fill(&mut self, addr: u64) -> bool {
        let (base, tag) = self.base_tag(addr);
        match self.find_or_victim(base, tag) {
            Ok(_) => false,
            Err(victim) => {
                self.touch(base, victim, tag);
                self.stats.prefetch_fills += 1;
                true
            }
        }
    }

    /// Block-aligns an address.
    pub fn block_of(&self, addr: u64) -> u64 {
        addr & !(self.cfg.block_bytes - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B = 256B
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            block_bytes: 64,
            hit_latency: 2,
        })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().sets(), 2);
        assert_eq!(c.block_of(0x7f), 0x40);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let a = c.access(0x0);
        assert!(!a.hit);
        let b = c.access(0x8); // same block
        assert!(b.hit);
        assert_eq!(b.way, a.way);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds blocks with even block index: 0x000, 0x080, 0x100 ...
        c.access(0x000); // way A
        c.access(0x080); // way B
        c.access(0x000); // touch A -> B is LRU
        c.access(0x100); // evicts B
        assert!(c.lookup(0x000).is_some());
        assert!(c.lookup(0x080).is_none());
        assert!(c.lookup(0x100).is_some());
    }

    #[test]
    fn way_changes_after_evict_refill() {
        let mut c = tiny();
        let w0 = c.access(0x000).way;
        c.access(0x080);
        c.access(0x100); // evicts 0x000 (LRU)
        assert!(c.lookup(0x000).is_none());
        c.access(0x080); // touch so 0x100 becomes LRU
        let w1 = c.access(0x000).way; // refill: replaces 0x100's way
                                      // In this 2-way toy, the refilled way differs from neither
                                      // necessarily, but the resident way is well-defined:
        assert_eq!(c.lookup(0x000), Some(w1));
        let _ = w0;
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = tiny();
        assert_eq!(c.probe(0x40), None);
        assert_eq!(c.lookup(0x40), None, "probe miss must not fill");
        c.access(0x40);
        assert!(c.probe(0x40).is_some());
        assert_eq!(c.stats().probes, 2);
        assert_eq!(c.stats().probe_hits, 1);
    }

    #[test]
    fn prefetch_fill_is_idempotent_and_counted() {
        let mut c = tiny();
        assert!(c.prefetch_fill(0x40));
        assert!(!c.prefetch_fill(0x44), "same block already resident");
        assert_eq!(c.stats().prefetch_fills, 1);
        assert!(c.access(0x40).hit, "prefetched block hits on demand");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 384,
            ways: 2,
            block_bytes: 64,
            hit_latency: 1,
        })
        .config()
        .sets();
    }

    #[test]
    #[should_panic(expected = "block size must be a power of two")]
    fn non_power_of_two_block_rejected() {
        // 2 sets x 2 ways x 96B: the set count is fine, the block is not.
        let _ = Cache::new(CacheConfig {
            size_bytes: 384,
            ways: 2,
            block_bytes: 96,
            hit_latency: 1,
        });
    }
}
