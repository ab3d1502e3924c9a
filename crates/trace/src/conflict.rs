//! Load→Store→Load conflict profiling (paper Figure 1).
//!
//! For each dynamic load we ask: since the *prior dynamic instance of the
//! same static load reading the same location*, has a store modified that
//! location? If yes, a last-value predictor would have mispredicted this
//! load. The paper splits these conflicts by whether the conflicting store
//! would still be **in flight** (within the instruction window) when the
//! load is fetched — those are the conflicts address prediction *cannot*
//! remove and which DLVP's LSCD filter must suppress.

use crate::record::TraceRecord;
use std::collections::HashMap;

/// 8-byte granule key covering an address range.
fn granules(addr: u64, bytes: u64) -> impl Iterator<Item = u64> {
    let first = addr >> 3;
    let last = (addr + bytes.max(1) - 1) >> 3;
    first..=last
}

/// Result of profiling one trace for load–store conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConflictProfile {
    /// Total dynamic loads inspected.
    pub loads: u64,
    /// Loads whose location was stored to since the prior instance of that
    /// static load at the same address, by a store that had *committed* (left
    /// the window) by the time the load was fetched.
    pub committed_conflicts: u64,
    /// Same, but the newest conflicting store was still in flight.
    pub inflight_conflicts: u64,
}

impl ConflictProfile {
    /// Fraction of loads with a committed-store conflict.
    pub fn committed_fraction(&self) -> f64 {
        ratio(self.committed_conflicts, self.loads)
    }

    /// Fraction of loads with an in-flight-store conflict.
    pub fn inflight_fraction(&self) -> f64 {
        ratio(self.inflight_conflicts, self.loads)
    }

    /// Fraction of loads with any conflict.
    pub fn total_fraction(&self) -> f64 {
        ratio(
            self.committed_conflicts + self.inflight_conflicts,
            self.loads,
        )
    }

    /// Of all conflicts, the share that involve already-committed stores —
    /// the share address prediction eliminates (the paper reports 67% across
    /// its workloads).
    pub fn committed_share(&self) -> f64 {
        ratio(
            self.committed_conflicts,
            self.committed_conflicts + self.inflight_conflicts,
        )
    }
}

/// Builds a [`ConflictProfile`] one record at a time, in program order.
#[derive(Debug, Clone, Default)]
pub struct ConflictProfiler {
    window: u64,
    /// granule -> seq of the newest store touching it
    last_store: HashMap<u64, u64>,
    /// static load pc -> (addr, seq) of its previous dynamic instance
    prev_load: HashMap<u64, (u64, u64)>,
    profile: ConflictProfile,
}

impl ConflictProfiler {
    /// A profiler with an in-flight window of `window` instructions (≈ ROB
    /// depth: a store less than `window` instructions older than the load
    /// is considered still in flight at fetch).
    pub fn new(window: u64) -> ConflictProfiler {
        ConflictProfiler {
            window,
            ..ConflictProfiler::default()
        }
    }

    /// Profiles the next record of the stream.
    pub fn push(&mut self, rec: &TraceRecord) {
        let bytes = rec.inst.mem_bytes().unwrap_or(0);
        if rec.inst.is_store() {
            for g in granules(rec.eff_addr, bytes) {
                self.last_store.insert(g, rec.seq);
            }
        } else if rec.inst.is_load() {
            let out = &mut self.profile;
            out.loads += 1;
            if let Some(&(prev_addr, prev_seq)) = self.prev_load.get(&rec.pc) {
                if prev_addr == rec.eff_addr {
                    // Newest store to any granule of this access since the
                    // previous instance.
                    let newest = granules(rec.eff_addr, bytes)
                        .filter_map(|g| self.last_store.get(&g).copied())
                        .filter(|&s| s > prev_seq)
                        .max();
                    if let Some(s) = newest {
                        if rec.seq - s < self.window {
                            out.inflight_conflicts += 1;
                        } else {
                            out.committed_conflicts += 1;
                        }
                    }
                }
            }
            self.prev_load.insert(rec.pc, (rec.eff_addr, rec.seq));
        }
    }

    /// The profile of every record pushed so far.
    pub fn finish(&self) -> ConflictProfile {
        self.profile
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_util::{load, store};
    use crate::Trace;

    fn profile(t: &Trace, window: u64) -> ConflictProfile {
        let mut p = ConflictProfiler::new(window);
        for r in t.records() {
            p.push(r);
        }
        p.finish()
    }

    #[test]
    fn no_store_no_conflict() {
        let t: Trace = vec![load(0x10, 0x800, 1), load(0x10, 0x800, 1)]
            .into_iter()
            .collect();
        let p = profile(&t, 224);
        assert_eq!(p.loads, 2);
        assert_eq!(p.committed_conflicts + p.inflight_conflicts, 0);
        assert_eq!(p.total_fraction(), 0.0);
    }

    #[test]
    fn interleaving_store_conflicts_inflight_when_close() {
        // load; store to same addr; load at same pc/addr — distance 1 < window
        let t: Trace = vec![
            load(0x10, 0x800, 1),
            store(0x20, 0x800, 2),
            load(0x10, 0x800, 2),
        ]
        .into_iter()
        .collect();
        let p = profile(&t, 224);
        assert_eq!(p.inflight_conflicts, 1);
        assert_eq!(p.committed_conflicts, 0);
    }

    #[test]
    fn distant_store_counts_as_committed() {
        let mut recs = vec![load(0x10, 0x800, 1), store(0x20, 0x800, 2)];
        // 300 unrelated loads push the store out of the window
        for i in 0..300 {
            recs.push(load(0x1000 + i * 4, 0x9000 + i * 8, 0));
        }
        recs.push(load(0x10, 0x800, 2));
        let t: Trace = recs.into_iter().collect();
        let p = profile(&t, 224);
        assert_eq!(p.committed_conflicts, 1);
        assert_eq!(p.inflight_conflicts, 0);
        assert!(p.committed_share() > 0.99);
    }

    #[test]
    fn different_address_instance_is_not_a_conflict() {
        // Same static load, but the address changed between instances.
        let t: Trace = vec![
            load(0x10, 0x800, 1),
            store(0x20, 0x900, 2),
            load(0x10, 0x900, 2),
        ]
        .into_iter()
        .collect();
        let p = profile(&t, 224);
        assert_eq!(p.committed_conflicts + p.inflight_conflicts, 0);
    }

    #[test]
    fn store_before_first_instance_does_not_conflict() {
        let t: Trace = vec![
            store(0x20, 0x800, 9),
            load(0x10, 0x800, 9),
            load(0x10, 0x800, 9),
        ]
        .into_iter()
        .collect();
        let p = profile(&t, 224);
        assert_eq!(p.committed_conflicts + p.inflight_conflicts, 0);
    }

    #[test]
    fn partial_overlap_detected_via_granules() {
        // 8-byte store at 0x800 overlaps a 4-byte load at 0x804 (same granule).
        let mut s = store(0x20, 0x800, 7);
        s.eff_addr = 0x800;
        let mut l1 = load(0x10, 0x804, 1);
        l1.eff_addr = 0x804;
        let mut l2 = load(0x10, 0x804, 7);
        l2.eff_addr = 0x804;
        let t: Trace = vec![l1, s, l2].into_iter().collect();
        let p = profile(&t, 224);
        assert_eq!(p.inflight_conflicts, 1);
    }
}
