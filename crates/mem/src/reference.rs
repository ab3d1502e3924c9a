//! Differential tests of the flat [`Cache`] and [`Tlb`] against reference
//! models: per-set `Vec`s, an explicit `valid` bit, `u64` division for the
//! set index and a two-pass victim search (first invalid way, else the
//! smallest `lru`). Seeded random streams interleave every operation and
//! must produce identical hits, ways and counters step by step.

use crate::cache::{Access, Cache, CacheConfig, CacheStats};
use crate::hierarchy::HierarchyConfig;
use crate::tlb::{Tlb, TlbConfig, TlbStats};

#[derive(Debug, Clone, Copy, Default)]
struct RefLine {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// The reference true-LRU cache.
struct RefCache {
    block_bytes: u64,
    sets: Vec<Vec<RefLine>>,
    tick: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        RefCache {
            block_bytes: cfg.block_bytes,
            sets: vec![vec![RefLine::default(); cfg.ways]; cfg.sets() as usize],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr / self.block_bytes;
        let sets = self.sets.len() as u64;
        ((block % sets) as usize, block / sets)
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.tick += 1;
        self.sets[set][way].lru = self.tick;
    }

    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        self.sets[set].iter().position(|l| l.valid && l.tag == tag)
    }

    fn victim(&self, set: usize) -> usize {
        if let Some(w) = self.sets[set].iter().position(|l| !l.valid) {
            return w;
        }
        self.sets[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.lru)
            .map(|(w, _)| w)
            .expect("non-zero ways")
    }

    fn fill(&mut self, set: usize, tag: u64) -> usize {
        let way = self.victim(set);
        self.sets[set][way] = RefLine {
            tag,
            valid: true,
            lru: 0,
        };
        self.touch(set, way);
        way
    }

    fn access(&mut self, addr: u64) -> Access {
        self.stats.accesses += 1;
        let (set, tag) = self.index_tag(addr);
        if let Some(way) = self.find(set, tag) {
            self.stats.hits += 1;
            self.touch(set, way);
            return Access { hit: true, way };
        }
        self.stats.misses += 1;
        let way = self.fill(set, tag);
        Access { hit: false, way }
    }

    fn probe(&mut self, addr: u64) -> Option<usize> {
        self.stats.probes += 1;
        let (set, tag) = self.index_tag(addr);
        let way = self.find(set, tag);
        if let Some(w) = way {
            self.stats.probe_hits += 1;
            self.touch(set, w);
        }
        way
    }

    fn lookup(&self, addr: u64) -> Option<usize> {
        let (set, tag) = self.index_tag(addr);
        self.find(set, tag)
    }

    fn prefetch_fill(&mut self, addr: u64) -> bool {
        let (set, tag) = self.index_tag(addr);
        if self.find(set, tag).is_some() {
            return false;
        }
        self.fill(set, tag);
        self.stats.prefetch_fills += 1;
        true
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct RefTlbLine {
    vpn: u64,
    valid: bool,
    lru: u64,
}

/// The reference TLB.
struct RefTlb {
    cfg: TlbConfig,
    sets: Vec<Vec<RefTlbLine>>,
    tick: u64,
    stats: TlbStats,
}

impl RefTlb {
    fn new(cfg: TlbConfig) -> RefTlb {
        RefTlb {
            cfg,
            sets: vec![vec![RefTlbLine::default(); cfg.ways]; cfg.entries / cfg.ways],
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    fn set_of(&self, addr: u64) -> (usize, u64) {
        let vpn = addr / self.cfg.page_bytes;
        ((vpn % self.sets.len() as u64) as usize, vpn)
    }

    fn access(&mut self, addr: u64) -> u32 {
        self.stats.accesses += 1;
        let (set, vpn) = self.set_of(addr);
        self.tick += 1;
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.valid && l.vpn == vpn) {
            l.lru = self.tick;
            return 0;
        }
        self.stats.misses += 1;
        let victim = self.sets[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru } else { 0 })
            .map(|(w, _)| w)
            .expect("non-zero ways");
        self.sets[set][victim] = RefTlbLine {
            vpn,
            valid: true,
            lru: self.tick,
        };
        self.cfg.miss_penalty
    }

    fn contains(&self, addr: u64) -> bool {
        let (set, vpn) = self.set_of(addr);
        self.sets[set].iter().any(|l| l.valid && l.vpn == vpn)
    }
}

/// SplitMix64: a seeded stream of test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// An address that revisits a small block pool often (hits, LRU
    /// reorders), strays over a wider region sometimes (conflicts,
    /// evictions) and now and then lands anywhere in the address space
    /// (tags that use the high bits).
    fn addr(&mut self, block_bytes: u64, pool_blocks: u64) -> u64 {
        let r = self.next();
        let offset = r % block_bytes;
        match (r >> 32) % 16 {
            0 => self.next(),
            1..=4 => (self.next() % (pool_blocks * 64)) * block_bytes + offset,
            _ => (self.next() % pool_blocks) * block_bytes + offset,
        }
    }
}

fn cache_geometries() -> Vec<CacheConfig> {
    let mut out = Vec::new();
    for ways in [1, 4, 8, 16] {
        for block_bytes in [64, 128] {
            for sets in [1, 2, 16] {
                out.push(CacheConfig {
                    size_bytes: sets * ways as u64 * block_bytes,
                    ways,
                    block_bytes,
                    hit_latency: 1,
                });
            }
        }
    }
    let table4 = HierarchyConfig::default();
    out.extend([table4.l1i, table4.l1d, table4.l2, table4.l3]);
    out
}

#[test]
fn flat_cache_matches_the_reference_model() {
    for (g, cfg) in cache_geometries().into_iter().enumerate() {
        for seed in 0..3u64 {
            let mut rng = Rng(seed << 32 | g as u64);
            let mut flat = Cache::new(cfg);
            let mut reference = RefCache::new(cfg);
            // A pool a little larger than the cache: hits and evictions both.
            let pool = (cfg.sets() * cfg.ways as u64 * 5 / 4).max(2);
            for step in 0..4_000 {
                let addr = rng.addr(cfg.block_bytes, pool);
                let what = format!("{cfg:?} seed {seed} step {step} addr {addr:#x}");
                match rng.next() % 8 {
                    0..=3 => assert_eq!(flat.access(addr), reference.access(addr), "{what}"),
                    4 | 5 => assert_eq!(flat.probe(addr), reference.probe(addr), "{what}"),
                    6 => assert_eq!(
                        flat.prefetch_fill(addr),
                        reference.prefetch_fill(addr),
                        "{what}"
                    ),
                    _ => assert_eq!(flat.lookup(addr), reference.lookup(addr), "{what}"),
                }
                assert_eq!(flat.stats(), reference.stats, "{what}");
            }
        }
    }
}

#[test]
fn flat_tlb_matches_the_reference_model() {
    let geometries = [(1, 1), (4, 1), (4, 4), (16, 4), (64, 8), (64, 16), (512, 8)];
    for (g, (entries, ways)) in geometries.into_iter().enumerate() {
        let cfg = TlbConfig {
            entries,
            ways,
            ..TlbConfig::default()
        };
        for seed in 0..3u64 {
            let mut rng = Rng(seed << 32 | g as u64 | 1 << 16);
            let mut flat = Tlb::new(cfg);
            let mut reference = RefTlb::new(cfg);
            let pool = (entries as u64 * 5 / 4).max(2);
            for step in 0..4_000 {
                let addr = rng.addr(cfg.page_bytes, pool);
                let what = format!("{cfg:?} seed {seed} step {step} addr {addr:#x}");
                if rng.next().is_multiple_of(4) {
                    assert_eq!(flat.contains(addr), reference.contains(addr), "{what}");
                } else {
                    assert_eq!(flat.access(addr), reference.access(addr), "{what}");
                }
                assert_eq!(flat.stats(), reference.stats, "{what}");
            }
        }
    }
}
